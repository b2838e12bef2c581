# Determinism golden: run a bench binary under pinned workload
# parameters and require its --json output to be byte-identical to a
# committed reference. Guards the hot-path engine's bit-identity
# contract (docs/PERFORMANCE.md) against drift from any PR. When
# STDOUT_GOLDEN names a committed .txt, the printed report must match
# it byte for byte too. Usage:
#   cmake -DCMD="<binary> <args...>" -DGOLDEN=<file> -DOUT=<file>
#         [-DSTDOUT_GOLDEN=<file>] -P golden_check.cmake
if(NOT DEFINED CMD OR NOT DEFINED GOLDEN OR NOT DEFINED OUT)
    message(FATAL_ERROR "golden_check.cmake needs -DCMD, -DGOLDEN, -DOUT")
endif()

# The same parameters the references in tests/golden/ were captured
# with (see that directory's README.md for the regeneration recipe).
set(ENV{GRIT_FOOTPRINT_DIVISOR} 128)
set(ENV{GRIT_INTENSITY} 0.2)

# Optional extra NAME=VALUE environment settings (CMake list), used by
# the chunk5000 variants to prove that replay through many small trace
# chunks produces byte-identical JSON.
include(${CMAKE_CURRENT_LIST_DIR}/extra_env.cmake)

separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
execute_process(COMMAND ${cmd_list} --json ${OUT}
                RESULT_VARIABLE code
                OUTPUT_FILE ${OUT}.txt
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
    message(FATAL_ERROR "exit ${code} from: ${CMD}\nstderr:\n${err}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${OUT} ${GOLDEN}
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR
            "JSON output drifted from the golden reference.\n"
            "  produced: ${OUT}\n  golden:   ${GOLDEN}\n"
            "If the change is intentional, regenerate per "
            "tests/golden/README.md and explain the drift in the PR.")
endif()

if(DEFINED STDOUT_GOLDEN AND NOT STDOUT_GOLDEN STREQUAL "")
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${OUT}.txt ${STDOUT_GOLDEN}
                    RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR
                "The printed report drifted from the golden reference.\n"
                "  produced: ${OUT}.txt\n  golden:   ${STDOUT_GOLDEN}")
    endif()
endif()
