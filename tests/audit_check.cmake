# Audit coverage: run a sweep binary at golden scale with --audit and
# require every run of its --json document to have been audited
# (audit.audits > 0) and to be clean (audit.violations == 0). A binary
# that drops --audit on any cell fails here. Usage:
#   cmake -DBIN=<sweep binary> -DOUT=<file> -P audit_check.cmake
if(NOT DEFINED BIN OR NOT DEFINED OUT)
    message(FATAL_ERROR "audit_check.cmake needs -DBIN and -DOUT")
endif()

# The same pins as golden_check.cmake.
set(ENV{GRIT_FOOTPRINT_DIVISOR} 128)
set(ENV{GRIT_INTENSITY} 0.2)

execute_process(COMMAND ${BIN} --jobs 4 --audit --json ${OUT}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
    message(FATAL_ERROR "exit ${code} from: ${BIN}\nstderr:\n${err}")
endif()

file(READ ${OUT} doc)
string(JSON runs LENGTH "${doc}" runs)
if(runs EQUAL 0)
    message(FATAL_ERROR "${OUT} holds no runs")
endif()
math(EXPR last "${runs} - 1")
foreach(i RANGE ${last})
    string(JSON run GET "${doc}" runs ${i})
    string(JSON row GET "${run}" row)
    string(JSON label GET "${run}" label)
    string(JSON audits ERROR_VARIABLE missing
           GET "${run}" counters audit.audits)
    if(missing OR NOT audits GREATER 0)
        message(FATAL_ERROR "${row}/${label} ran without audits (${OUT})")
    endif()
    string(JSON violations GET "${run}" counters audit.violations)
    if(NOT violations EQUAL 0)
        message(FATAL_ERROR
                "${row}/${label}: ${violations} audit violation(s) (${OUT})")
    endif()
endforeach()
message(STATUS "${runs} run(s) audited, 0 violations")
