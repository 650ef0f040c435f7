# Differential output check, run as a ctest via `cmake -P`.
#
#   cmake -DCMD1=<exe + args> -DCMD2=<exe + args> [-DCMD3=<exe + args>]
#         [-DENVVARS=<K=V;K=V;...>] [-DCLEAN_DIR=<dir>]
#         -DOUT1=<file> -DOUT2=<file> [-DOUT3=<file>]
#         -P replay_equal.cmake
#
# Removes CLEAN_DIR (so a cache-backed run starts cold), then runs the
# commands in order with the given environment and fails unless every
# stdout is byte-identical to CMD1's. This pins the replay contract (a
# sweep replaying a captured CNTRF001 stream, or the shared in-memory
# trace cache at any --jobs level, must reproduce the capture run's
# results exactly) and the result cache's (cold and warm cached sweeps
# must print the uncached run's bytes).

if(NOT DEFINED CMD1 OR NOT DEFINED CMD2 OR NOT DEFINED OUT1
   OR NOT DEFINED OUT2)
    message(FATAL_ERROR
            "replay_equal: CMD1, CMD2, OUT1, and OUT2 are required")
endif()

if(DEFINED ENVVARS)
    foreach(kv IN LISTS ENVVARS)
        string(FIND "${kv}" "=" eq)
        string(SUBSTRING "${kv}" 0 ${eq} key)
        math(EXPR vstart "${eq} + 1")
        string(SUBSTRING "${kv}" ${vstart} -1 val)
        set(ENV{${key}} "${val}")
    endforeach()
endif()

if(DEFINED CLEAN_DIR)
    file(REMOVE_RECURSE "${CLEAN_DIR}")
endif()

set(sides 1 2)
if(DEFINED CMD3)
    list(APPEND sides 3)
endif()
foreach(side IN LISTS sides)
    separate_arguments(cmd_list UNIX_COMMAND "${CMD${side}}")
    execute_process(
        COMMAND ${cmd_list}
        OUTPUT_VARIABLE got${side}
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "replay_equal: '${CMD${side}}' exited ${rc}\n${err}")
    endif()
    file(WRITE "${OUT${side}}" "${got${side}}")
    if(NOT got${side} STREQUAL got1)
        message(FATAL_ERROR
            "replay_equal: outputs differ\n"
            "  ${OUT1}\n  ${OUT${side}}\n"
            "Every run must reproduce the first run's output exactly.")
    endif()
endforeach()
