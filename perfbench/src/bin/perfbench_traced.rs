//! Per-layer metrics of one workload: spans around every call into a layer
//! and exact allocation counts. See the crate docs.

#[global_allocator]
static ALLOCATOR: perfbench::count_alloc::CountingAlloc = perfbench::count_alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main_with(true)
}
