# Self-consistency check: run one bench binary twice with the same
# arguments and require the two --json documents to be byte-identical.
# Unlike golden_check.cmake this needs no committed reference: it
# proves that a repeated run (e.g. one sharing a journal path with the
# first) produces the same document. Usage:
#   cmake -DBIN=<binary> -DARGS="<args>" -DOUT=<stem>
#         -P selfsame_check.cmake
if(NOT DEFINED BIN OR NOT DEFINED OUT)
    message(FATAL_ERROR "selfsame_check.cmake needs -DBIN, -DOUT")
endif()

# Keep runtimes test-sized, same pins as golden_check.cmake.
set(ENV{GRIT_FOOTPRINT_DIVISOR} 128)
set(ENV{GRIT_INTENSITY} 0.2)

separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
foreach(run A B)
    execute_process(COMMAND ${BIN} ${arg_list} --json ${OUT}.${run}.json
                    RESULT_VARIABLE code
                    OUTPUT_QUIET
                    ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR
                "exit ${code} from run ${run}: ${BIN} ${ARGS}\n"
                "stderr:\n${err}")
    endif()
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${OUT}.A.json ${OUT}.B.json
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR
            "the two runs produced different JSON documents:\n"
            "  ${OUT}.A.json\n  ${OUT}.B.json")
endif()
