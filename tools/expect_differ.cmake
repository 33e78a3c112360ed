# Run two commands that must both succeed and print different output,
# so a value the first one gives is not read as the second one's:
#
#   cmake -P expect_differ.cmake -- <command A> [args...] -- <command B> [args...]

set(a "")
set(b "")
set(seps 0)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(in_command)
        if(CMAKE_ARGV${i} STREQUAL "--")
            math(EXPR seps "${seps} + 1")
        elseif(seps EQUAL 1)
            list(APPEND a "${CMAKE_ARGV${i}}")
        else()
            list(APPEND b "${CMAKE_ARGV${i}}")
        endif()
    elseif(CMAKE_ARGV${i} STREQUAL "-P")
        math(EXPR script_at "${i} + 1")
    elseif(DEFINED script_at AND i EQUAL script_at)
        set(in_command TRUE)
    endif()
endforeach()
if(NOT a OR NOT b OR NOT seps EQUAL 2)
    message(FATAL_ERROR "usage: cmake -P expect_differ.cmake -- "
                        "<command A> [args...] -- <command B> [args...]")
endif()

foreach(side a b)
    execute_process(COMMAND ${${side}} RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out_${side} ERROR_VARIABLE out_${side})
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command ${side} failed ('${rc}'):\n"
                            "${out_${side}}")
    endif()
endforeach()
if(out_a STREQUAL out_b)
    message(FATAL_ERROR "both commands printed the same output:\n${out_a}")
endif()
