# Runs mfc on one hostile input. mfc must end on its own terms: a compile
# diagnostic (exit 1) or a clean runtime error (exit 3) passes; death by a
# signal (an uncaught exception aborts) or any other exit fails. Run with
#   cmake -DMFC=<path-to-mfc> -DINPUT=<file.mf> -P mfc_no_signal.cmake
if(NOT DEFINED MFC OR NOT DEFINED INPUT)
  message(FATAL_ERROR "pass -DMFC=<path to mfc> -DINPUT=<file.mf>")
endif()

execute_process(COMMAND ${MFC} ${INPUT}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
# A process killed by a signal reports a description, not a number.
if(NOT rc MATCHES "^[0-9]+$")
  message(FATAL_ERROR "mfc ${INPUT} died: ${rc}\n${err}")
endif()
if(rc EQUAL 1 AND err MATCHES "error:")
  message(STATUS "mfc ${INPUT}: diagnostic\n${err}")
elseif(rc EQUAL 3 AND err MATCHES "runtime fault:")
  message(STATUS "mfc ${INPUT}: runtime error\n${err}")
else()
  message(FATAL_ERROR "mfc ${INPUT} exited with ${rc}\n${err}")
endif()
