# Runs one example binary as a smoke test:
#
#   cmake -DEXE=<binary> [-DARGS=<arg>] [-DEXIT_CODE=<n>]
#         -DEXPECT=<regex>[;<regex>...] -P smoke.cmake
#
# Fails unless the binary exits with EXIT_CODE (default 0) and its
# combined stdout/stderr matches every EXPECT regex.

if(NOT DEFINED EXIT_CODE)
    set(EXIT_CODE 0)
endif()
execute_process(COMMAND ${EXE} ${ARGS}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
if(NOT rc STREQUAL "${EXIT_CODE}")
    message(FATAL_ERROR "${EXE} exited with ${rc}, expected ${EXIT_CODE}:\n${out}")
endif()
foreach(re IN LISTS EXPECT)
    if(NOT out MATCHES "${re}")
        message(FATAL_ERROR "${EXE}: output does not match '${re}':\n${out}")
    endif()
endforeach()
