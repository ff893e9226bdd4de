//! Timed benchmark runs (`--trace 0`): the system allocator, no counting.

fn main() -> std::process::ExitCode {
    poi360_perfbench::main_with(false)
}
