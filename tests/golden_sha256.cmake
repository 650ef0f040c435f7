# Golden digest check, run as a ctest via `cmake -P`.
#
#   cmake -DCMD=<exe + args> -DOUT=<file> -DGOLDEN=<digest file>
#         [-DCAPTURE=ON] [-DCLEAN_DIR=<dir>] -P golden_sha256.cmake
#
# Empties CLEAN_DIR (so a cache-backed run starts cold), runs CMD and
# fails unless the SHA-256 of OUT equals the hex digest on the first
# line of GOLDEN. With CAPTURE, OUT receives CMD's stdout; without it,
# CMD must write OUT itself. This pins outputs too large to commit as
# text, such as the Chrome JSON and the full text dump that cntrace
# renders from a logged run, and the bytes of the binary file formats.

if(NOT DEFINED CMD OR NOT DEFINED OUT OR NOT DEFINED GOLDEN)
    message(FATAL_ERROR "golden_sha256: CMD, OUT, and GOLDEN are required")
endif()

if(DEFINED CLEAN_DIR)
    file(REMOVE_RECURSE "${CLEAN_DIR}")
    file(MAKE_DIRECTORY "${CLEAN_DIR}")
endif()
file(REMOVE "${OUT}")
separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
if(CAPTURE)
    execute_process(
        COMMAND ${cmd_list}
        OUTPUT_FILE "${OUT}"
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
else()
    execute_process(
        COMMAND ${cmd_list}
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "golden_sha256: '${CMD}' exited ${rc}\n${err}")
endif()
if(NOT EXISTS "${OUT}")
    message(FATAL_ERROR "golden_sha256: '${CMD}' wrote no ${OUT}")
endif()

file(SHA256 "${OUT}" got)
file(STRINGS "${GOLDEN}" want LIMIT_COUNT 1)
string(STRIP "${want}" want)
if(NOT got STREQUAL want)
    message(FATAL_ERROR
        "golden_sha256: ${OUT} has SHA-256 ${got}\n"
        "but ${GOLDEN} pins ${want}\n"
        "Regenerate the golden ONLY for an intentional change to what "
        "the command prints.")
endif()
