# Run a command that must fail: it has to exit non-zero (not crash)
# and print output matching EXPECT.
#
#   cmake -DEXPECT=<regex> -P expect_failure.cmake -- <command> [args...]
#
# The "--" stops cmake from taking options of the command that it also
# knows (--trace-format) as its own; it is optional otherwise.

# The command is every argument after "-P <this script> [--]".
set(command "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(in_command)
        if(NOT command AND CMAKE_ARGV${i} STREQUAL "--")
            continue()
        endif()
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "-P")
        math(EXPR script_at "${i} + 1")
    elseif(DEFINED script_at AND i EQUAL script_at)
        set(in_command TRUE)
    endif()
endforeach()
if(NOT command)
    message(FATAL_ERROR "usage: cmake -DEXPECT=<regex> -P "
                        "expect_failure.cmake -- <command> [args...]")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc MATCHES "^[1-9][0-9]*$")
    message(FATAL_ERROR "expected a non-zero exit, got '${rc}':\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}")
endif()
