# Apply EXTRA_ENV, an optional CMake list of NAME=VALUE settings, to
# the environment of the processes a check script starts.
if(DEFINED EXTRA_ENV)
    foreach(kv IN LISTS EXTRA_ENV)
        string(FIND "${kv}" "=" eq)
        string(SUBSTRING "${kv}" 0 ${eq} k)
        math(EXPR after "${eq} + 1")
        string(SUBSTRING "${kv}" ${after} -1 v)
        set(ENV{${k}} "${v}")
    endforeach()
endif()
