//! Sweep SET value sizes (the paper's Figure 12) with sizes taken from the
//! command line, comparing SKV against RDMA-Redis.
//!
//! ```text
//! cargo run --release -p skv-examples --bin value_size_sweep -- 64 512 4096
//! ```

use skv_bench::experiments;

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| {
            a.parse()
                .unwrap_or_else(|_| panic!("not a value size: {a:?}"))
        })
        .collect();
    let sizes = if sizes.is_empty() {
        vec![64, 256, 1024, 4096]
    } else {
        sizes
    };
    let table = experiments::fig12_value_size(&sizes);
    print!("{table}");

    // SKV must win at every size (the paper's claim for Figure 12).
    for (size, gain) in sizes.iter().zip(table.column("gain%")) {
        assert!(gain > 0.0, "SKV should beat RDMA-Redis at {size} bytes");
    }
    println!("\nSKV outperformed RDMA-Redis at every value size");
}
