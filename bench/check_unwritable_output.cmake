# Runs ${BENCH} with ${FLAG} pointing into a directory that does not exist and
# checks that it exits 1 at flag parsing: a "cannot write" notice on stderr
# and nothing on stdout (no experiment ran, so no result rows).
#
#   cmake -DBENCH=<harness> -DFLAG=--trace-out -P check_unwritable_output.cmake
execute_process(
  COMMAND ${BENCH} ${FLAG} /nonexistent-laminar-output-dir/out.json --snapshot-at 5
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 60)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "${FLAG}: expected exit status 1, got '${status}'\nstderr: ${err}")
endif()
if(NOT err MATCHES "cannot write /nonexistent-laminar-output-dir/out.json")
  message(FATAL_ERROR "${FLAG}: no 'cannot write' notice on stderr: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${FLAG}: experiments ran before the path check; stdout:\n${out}")
endif()
