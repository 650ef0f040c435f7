# User-error check, run as a ctest via `cmake -P`.
#
#   cmake -DCMD=<exe + args> -DEXPECT=<regex> [-DSTDOUT=<path>]
#         -P expect_fatal.cmake
#
# Runs CMD and fails unless it exits non-zero and its stderr matches
# "fatal: " followed by EXPECT. An exit status of 0, or an abort through
# panic() (an assertion, not a user error), fails the test. With STDOUT,
# CMD's standard output goes to that path (for example /dev/full);
# without it, the output is discarded.

if(NOT DEFINED CMD OR NOT DEFINED EXPECT)
    message(FATAL_ERROR "expect_fatal: CMD and EXPECT are required")
endif()

separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
if(DEFINED STDOUT)
    execute_process(
        COMMAND ${cmd_list}
        OUTPUT_FILE "${STDOUT}"
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
else()
    execute_process(
        COMMAND ${cmd_list}
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
endif()
if(rc EQUAL 0)
    message(FATAL_ERROR "expect_fatal: '${CMD}' exited 0\n${err}")
endif()
if(NOT err MATCHES "fatal: ${EXPECT}")
    message(FATAL_ERROR
        "expect_fatal: '${CMD}' exited ${rc} without 'fatal: ${EXPECT}'\n"
        "${err}")
endif()
