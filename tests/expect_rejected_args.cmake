# Runs an example with arguments it must reject. Passes only if the example
# exits with status 2 and its output (stdout and stderr together) matches
# EXPECT_REGEX, so an example that prints its usage and then exits 0 fails.
#
#   cmake -DEXAMPLE=<executable> "-DEXAMPLE_ARGS=<args>"
#         "-DEXPECT_REGEX=<regex>" -P expect_rejected_args.cmake
foreach(var EXAMPLE EXPECT_REGEX)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_rejected_args.cmake: ${var} is not set")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${EXAMPLE_ARGS}")
execute_process(COMMAND "${EXAMPLE}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output
                TIMEOUT 10)
message("${output}")
if(NOT status STREQUAL "2")
  message(FATAL_ERROR
          "${EXAMPLE} ${EXAMPLE_ARGS}: exit status '${status}', expected 2")
endif()
if(NOT output MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR
          "${EXAMPLE} ${EXAMPLE_ARGS}: output does not match "
          "'${EXPECT_REGEX}'")
endif()
