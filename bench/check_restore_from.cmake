# Snapshots every experiment of ${BENCH} at ${AT} simulated seconds, then
# direct-boots the last config labelled ${LABEL} from its warm-start file and
# checks that the restore run exits 0, restores exactly one config, reports
# its boot re-snapshot as byte-identical to the file's blob, and prints
# exactly the stdout of a plain run (every other config, including any other
# config with the same label, runs from t=0).
#
#   cmake -DBENCH=<harness> -DLABEL=<config label> -DAT=<seconds>
#         -DWORK_DIR=<scratch dir> -P check_restore_from.cmake
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(COMMAND ${BENCH} RESULT_VARIABLE status OUTPUT_VARIABLE plain TIMEOUT 300)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "plain run exited '${status}'")
endif()

execute_process(
  COMMAND ${BENCH} --snapshot-at ${AT} --snapshot-out ${WORK_DIR}/snap.lmsnap
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 300)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "snapshot run exited '${status}'\nstderr: ${err}")
endif()
string(REGEX MATCHALL "snapshot: ${LABEL}: [0-9]+ bytes at t=[^ ]+ s -> [^\n]+" lines "${err}")
if(NOT lines)
  message(FATAL_ERROR "no warm-start file written for ${LABEL}\nstderr: ${err}")
endif()
list(GET lines -1 line)
string(REGEX MATCH "-> (.+)" line "${line}")
set(file ${CMAKE_MATCH_1})

execute_process(COMMAND ${BENCH} --restore-from ${file}
                RESULT_VARIABLE status OUTPUT_VARIABLE restored ERROR_VARIABLE err
                TIMEOUT 300)
file(REMOVE_RECURSE ${WORK_DIR})
if(NOT status EQUAL 0)
  message(FATAL_ERROR "restore run exited '${status}'\nstderr: ${err}")
endif()
string(REGEX MATCHALL "direct-boot restore vs" boots "${err}")
list(LENGTH boots boots)
if(NOT boots EQUAL 1)
  message(FATAL_ERROR "expected one restored config, saw ${boots}:\n${err}")
endif()
if(NOT err MATCHES "${LABEL}: direct-boot restore vs .* 0 field mismatch\\(es\\), blob byte-identical")
  message(FATAL_ERROR "restore did not report a byte-identical boot:\n${err}")
endif()
if(NOT restored STREQUAL plain)
  message(FATAL_ERROR "restore run stdout differs from the plain run's:\n${restored}")
endif()
