# Runs one indoorflow_cli command that must fail cleanly: exit code exactly
# 1 (so a crash or an abort cannot pass) and the expected message on
# stderr. ARGS is the ;-separated command line, EXPECT a regular
# expression the error message must match.
execute_process(
  COMMAND ${CLI} ${ARGS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR
    "indoorflow_cli ${ARGS}: expected exit code 1, got '${rc}'\n"
    "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR
    "indoorflow_cli ${ARGS}: stderr does not match '${EXPECT}'\n"
    "stderr: ${err}")
endif()
