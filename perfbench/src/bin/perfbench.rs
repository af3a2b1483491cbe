//! End-to-end metrics of one workload, tracing off. See the crate docs.

fn main() -> std::process::ExitCode {
    perfbench::main_with(false)
}
