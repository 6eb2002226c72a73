# Runs mfc on one input with its address space capped at 512 MB and
# requires a clean exit (0). A run that keeps memory it should free on the
# way, such as each call's frame, outgrows the cap and ends with a runtime
# fault (exit 3, an array it cannot allocate) or a signal instead. Run with
#   cmake -DMFC=<path-to-mfc> -DINPUT=<file.mf> -P mfc_memory_cap.cmake
if(NOT DEFINED MFC OR NOT DEFINED INPUT)
  message(FATAL_ERROR "pass -DMFC=<path to mfc> -DINPUT=<file.mf>")
endif()
set(CAP_KB 524288)

execute_process(
  COMMAND sh -c "ulimit -v ${CAP_KB} && exec \"$0\" \"$1\"" ${MFC} ${INPUT}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "mfc ${INPUT} under a ${CAP_KB} KB address-space cap exited with "
    "${rc}\n${err}")
endif()
message(STATUS "mfc ${INPUT}: ran within ${CAP_KB} KB\n${err}")
