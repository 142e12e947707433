# `generate` creates its --out directory, missing parents included: start
# from a directory that does not exist and generate two levels below it.
file(REMOVE_RECURSE ${OUT})
execute_process(
  COMMAND ${CLI} generate --out ${OUT}/a/b --objects 5 --duration 120
    --seed 3
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "indoorflow_cli generate into ${OUT}/a/b failed: ${rc}")
endif()
if(NOT EXISTS ${OUT}/a/b/ott.csv)
  message(FATAL_ERROR "generate did not write ${OUT}/a/b/ott.csv")
endif()
