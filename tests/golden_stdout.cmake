# Runs BIN with no arguments and fails unless it exits 0 and its stdout equals
# the file GOLDEN byte for byte. Usage:
#   cmake -DBIN=<program> -DGOLDEN=<file> -P golden_stdout.cmake
# If a figure moves on purpose, regenerate the golden with `<program> >
# <file>` and say why in the commit.
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND "${BIN}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${BIN}: stdout differs from ${GOLDEN}\n"
                      "--- actual stdout ---\n${actual}")
endif()
