//! Candidate-kernel microbenchmark — scalar vs batched trial evaluation.
//!
//! Prints ns/trial for the scalar path (`trial_cost` per candidate) and
//! the batched path (`trial_costs` over the whole list) across problem
//! sizes and candidate-list lengths, plus the speedup ratio. The batched
//! kernel is bit-identical to scalar by contract (see
//! `tests/batch_kernel.rs`); this binary shows what the hoisted rows and
//! the two-candidate walk buy in time. The QAP-256 / batch-32 point is
//! the one `engine_compare --time-check` gates through `BENCH_time.json`.
//!
//! Run in release mode — debug timings are meaningless:
//! `cargo run --release -p pts-bench --bin kernel_bench`

use pts_bench::emit;
use pts_bench::kernel::bench_qap_kernel;
use pts_util::csv::CsvWriter;
use pts_util::table::Table;

fn main() {
    println!("== QAP candidate kernel: scalar trial_cost vs batched trial_costs ==\n");
    let mut table = Table::new([
        "qap n",
        "batch",
        "scalar ns/trial",
        "batched ns/trial",
        "speedup",
    ]);
    let mut csv = CsvWriter::new([
        "qap_n",
        "batch",
        "scalar_ns_per_trial",
        "batched_ns_per_trial",
        "speedup",
    ]);
    for &n in &[64usize, 256, 1024] {
        for &batch in &[4usize, 32, 256] {
            // Round count scaled down with problem size to keep the
            // whole sweep a few seconds.
            let rounds = (2_000_000 / (n * batch)).clamp(20, 4000);
            let b = bench_qap_kernel(n, batch, rounds, 17);
            table.row([
                n.to_string(),
                batch.to_string(),
                format!("{:.1}", b.scalar_ns_per_trial),
                format!("{:.1}", b.batched_ns_per_trial),
                format!("{:.2}x", b.speedup()),
            ]);
            csv.row([
                n.to_string(),
                batch.to_string(),
                format!("{:.2}", b.scalar_ns_per_trial),
                format!("{:.2}", b.batched_ns_per_trial),
                format!("{:.3}", b.speedup()),
            ]);
        }
    }
    emit("kernel_bench", &table, &csv);
    println!("(both paths are bit-identical by contract; the gated point is QAP-256 in BENCH_time.json.)");
}
