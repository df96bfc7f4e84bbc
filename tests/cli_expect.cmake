# Runs one command-line tool invocation and checks how it ends; the
# cli_* ctest cases in this directory call it with cmake -P.
#   COMMAND  the invocation, a list: binary then arguments
#   EXIT     the exit status it must return
#   EXPECT   regexes that must each match its stderr (exit 2) or its
#            stdout (any other status)
# A usage error (exit 2) must leave stdout empty, so a redirected
# report never holds usage text.
execute_process(COMMAND ${COMMAND} TIMEOUT 60
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit status ${status}, expected ${EXIT}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
set(text "${out}")
if(EXIT EQUAL 2)
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "usage error wrote to stdout:\n${out}")
  endif()
  set(text "${err}")
endif()
foreach(pattern IN LISTS EXPECT)
  if(NOT text MATCHES "${pattern}")
    message(FATAL_ERROR "no match for '${pattern}' in:\n${text}")
  endif()
endforeach()
