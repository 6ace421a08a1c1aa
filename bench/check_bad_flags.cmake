# Runs a bench binary with malformed numeric flags and requires, for each,
# exit status 2 and the flag named on the first line of stderr.
#   cmake -DBENCH=<bench binary> -P check_bad_flags.cmake
foreach(arg "--packets=-1" "--packets=12x" "--shards=0")
  string(REGEX REPLACE "=.*" "" flag "${arg}")
  execute_process(COMMAND "${BENCH}" "${arg}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${arg}: exit status '${rc}', want 2\n${err}")
  endif()
  string(REGEX MATCH "^[^\n]*" first_line "${err}")
  string(FIND "${first_line}" "${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${arg}: first stderr line does not name ${flag}:\n${err}")
  endif()
endforeach()
