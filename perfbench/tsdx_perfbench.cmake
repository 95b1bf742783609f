# Injected into the tsdx project by run.py through
# -DCMAKE_PROJECT_tsdx_INCLUDE=<this file>. It runs right after the root
# project() call and defers adding the benchmark target to the end of the
# root CMakeLists.txt, so the target sees the same language standard,
# compile and link options (sanitizers included) as the repository's own
# targets and links the library targets built with exactly their flags.
set(TSDX_PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(tsdx_perfbench_add)
  add_executable(tsdx_perfbench ${TSDX_PERFBENCH_DIR}/perfbench.cpp)
  target_link_libraries(tsdx_perfbench PRIVATE tsdx_serve tsdx_index
    tsdx_plan tsdx_core tsdx_sim tsdx_warnings)
endfunction()

cmake_language(DEFER CALL tsdx_perfbench_add)
