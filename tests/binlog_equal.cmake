# Binlog equality check, run as a ctest via `cmake -P`.
#
#   cmake -DCMD1=<exe + args> -DCMD2=<exe + args>
#         -DDIR1=<dir> -DDIR2=<dir> -P binlog_equal.cmake
#
# Runs CMD1 (writing CNBLG002 binlogs into DIR1) then CMD2 (into DIR2)
# and fails unless every binlog in DIR1 has a byte-identical twin in
# DIR2. This pins the binlog determinism contract: the stream's bytes
# are a pure function of the simulation thread's append order, so
# neither ParallelRunner --jobs nor the observing --audit may change
# them.

if(NOT DEFINED CMD1 OR NOT DEFINED CMD2 OR NOT DEFINED DIR1
   OR NOT DEFINED DIR2)
    message(FATAL_ERROR
            "binlog_equal: CMD1, CMD2, DIR1, and DIR2 are required")
endif()

foreach(side 1 2)
    file(REMOVE_RECURSE "${DIR${side}}")
    file(MAKE_DIRECTORY "${DIR${side}}")
    separate_arguments(cmd_list UNIX_COMMAND "${CMD${side}}")
    execute_process(
        COMMAND ${cmd_list}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "binlog_equal: '${CMD${side}}' exited ${rc}\n${err}")
    endif()
endforeach()

file(GLOB logs1 RELATIVE "${DIR1}" "${DIR1}/*.blg")
if(NOT logs1)
    message(FATAL_ERROR "binlog_equal: no binlogs written under ${DIR1}")
endif()

foreach(log IN LISTS logs1)
    if(NOT EXISTS "${DIR2}/${log}")
        message(FATAL_ERROR
                "binlog_equal: ${log} missing under ${DIR2}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${DIR1}/${log}" "${DIR2}/${log}"
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR
            "binlog_equal: ${log} differs between the two runs\n"
            "  ${DIR1}/${log}\n  ${DIR2}/${log}\n"
            "Binlog bytes must be independent of --jobs and --audit.")
    endif()
endforeach()
