# Runs mfc on an input it must reject at compile time: exit 1, a
# diagnostic matching EXPECT on stderr, and no program output. Run with
#   cmake -DMFC=<path-to-mfc> -DINPUT=<file.mf> -DEXPECT=<regex>
#         -P mfc_expect_diagnostic.cmake
if(NOT DEFINED MFC OR NOT DEFINED INPUT OR NOT DEFINED EXPECT)
  message(FATAL_ERROR
    "pass -DMFC=<path to mfc> -DINPUT=<file.mf> -DEXPECT=<regex>")
endif()

execute_process(COMMAND ${MFC} ${INPUT}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "mfc ${INPUT} exited with ${rc}, expected 1\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "mfc ${INPUT}: no diagnostic matching '${EXPECT}'\n"
    "${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "mfc ${INPUT} ran the program:\n${out}")
endif()
message(STATUS "mfc ${INPUT}: ${err}")
