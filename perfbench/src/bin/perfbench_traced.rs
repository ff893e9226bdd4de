//! Traced benchmark runs (`--trace 1`): the counting allocator is
//! installed here and only here, so timed runs never pay for it.

#[global_allocator]
static ALLOC: poi360_testkit::alloc::CountingAlloc = poi360_testkit::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    poi360_perfbench::main_with(true)
}
