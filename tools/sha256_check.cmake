# Fails unless FILE's SHA-256 equals SHA256 (lower-case hex).
# Usage: cmake -DFILE=<path> -DSHA256=<hex> -P sha256_check.cmake
file(SHA256 "${FILE}" actual)
if(NOT actual STREQUAL SHA256)
  message(FATAL_ERROR "${FILE}: SHA-256 ${actual}, expected ${SHA256}")
endif()
