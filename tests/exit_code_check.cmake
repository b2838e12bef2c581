# Assert a bench binary's exit code, for the guardedMain contract
# (0 complete, 2 usage/config error, 3 partial sweep). Usage:
#   cmake -DCMD="<binary> <args...>" -DEXPECTED=<code>
#         [-DEXTRA_ENV=NAME=VALUE;...] -P exit_code_check.cmake
if(NOT DEFINED CMD OR NOT DEFINED EXPECTED)
    message(FATAL_ERROR "exit_code_check.cmake needs -DCMD and -DEXPECTED")
endif()
include(${CMAKE_CURRENT_LIST_DIR}/extra_env.cmake)

separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
execute_process(COMMAND ${cmd_list}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)

if(NOT code EQUAL EXPECTED)
    message(FATAL_ERROR
            "expected exit ${EXPECTED}, got ${code} from: ${CMD}\n"
            "stdout:\n${out}\nstderr:\n${err}")
endif()
