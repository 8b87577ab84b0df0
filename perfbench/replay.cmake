# Adds the benchmark's traced-replay binary to the repository's own build.
# perfbench/run.py configures the repository with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# so holmes_replay compiles with the same compiler, language standard,
# build type, options and library targets as holmes_cli. This file runs
# inside project(), before the top-level CMakeLists.txt sets those, so the
# target is created by a call deferred to the end of that directory.
set(HOLMES_REPLAY_SOURCE ${CMAKE_CURRENT_LIST_DIR}/replay.cpp)
function(holmes_add_replay)
  add_executable(holmes_replay ${HOLMES_REPLAY_SOURCE})
  target_link_libraries(holmes_replay PRIVATE holmes_core)
endfunction()
cmake_language(DEFER CALL holmes_add_replay)
