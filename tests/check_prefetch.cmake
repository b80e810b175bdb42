# Fails when the host prefetches of src/mem were compiled away.
#
#   cmake -DARCHIVE=libhc_mem.a -DOBJDUMP=objdump -DPROCESSOR=x86_64 \
#         -P check_prefetch.cmake
#
# Disassembles the hc_mem archive and requires a prefetch instruction
# in two members: memory.cc.o, where CacheModel::accessSpan's set
# look-ahead is instantiated (readBuffer/writeBuffer), and mee.cc.o,
# where Mee::writebackLine prefetches the line metadata it queues.
# GCC drops an out-of-line prefetch helper whose result is unused, so
# the source alone does not show that the look-ahead survives.
# Prints "SKIPPED:" (a skip for ctest) off x86-64 or without objdump.

if(NOT PROCESSOR MATCHES "^(x86_64|AMD64|amd64)$")
    message("SKIPPED: prefetch check needs x86-64, target is "
            "'${PROCESSOR}'")
    return()
endif()
if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
    message("SKIPPED: objdump not found")
    return()
endif()

execute_process(COMMAND "${OBJDUMP}" -d "${ARCHIVE}"
                OUTPUT_VARIABLE disasm RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -d ${ARCHIVE} failed (${status})")
endif()

# objdump starts each archive member with "<name>:     file format".
set(missing "")
foreach(member memory.cc.o mee.cc.o)
    string(FIND "${disasm}" "\n${member}:" start)
    if(start EQUAL -1)
        message(FATAL_ERROR "no member ${member} in ${ARCHIVE}")
    endif()
    string(SUBSTRING "${disasm}" ${start} -1 rest)
    # Cut at the next member's header.
    string(SUBSTRING "${rest}" 1 -1 after)
    string(REGEX MATCH "\n[^\n]+:[ \t]+file format" next "${after}")
    if(next)
        string(FIND "${after}" "${next}" end)
        string(SUBSTRING "${after}" 0 ${end} rest)
    endif()
    string(REGEX MATCHALL "\tprefetch[a-z0-9]*" hits "${rest}")
    list(LENGTH hits n)
    message("${member}: ${n} prefetch instruction(s)")
    if(n EQUAL 0)
        list(APPEND missing ${member})
    endif()
endforeach()
if(missing)
    message(FATAL_ERROR "no prefetch instruction in ${missing}: "
            "the host prefetches were compiled away")
endif()
