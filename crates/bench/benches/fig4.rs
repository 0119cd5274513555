//! Figure 4: Configuration for Join Processing with Bloom Filters.
//!
//! The analytic surface `z = 0.0432·(I_A/I_B) + 2·(p/I_B)` against the
//! viability plane `z = 0.75` (formula 5), including the annotated
//! thresholds `I_B/p ≥ 2.83` at `I_A/I_B = 1` and `≥ 6.29` at ratio 10.

use authdb_bench::{banner, csv_begin, csv_end};
use authdb_paper::join::viability;

fn main() {
    banner("Figure 4", "Viability surface for BF join configuration");

    println!("\nz(I_A/I_B, I_B/p); viable (BF wins) where z < 0.75:\n");
    let ratios = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0];
    let part_sizes = [2.0, 2.83, 4.0, 6.0, 6.29, 8.0, 10.0];
    print!("{:>10} |", "IA/IB \\ IB/p");
    for p in part_sizes {
        print!(" {p:>7.2}");
    }
    println!();
    println!("{:-<11}+{:-<56}", "", "");
    csv_begin("ia_over_ib,ib_over_p,z,viable");
    for r in ratios {
        print!("{r:>10.1} |");
        for p in part_sizes {
            let z = viability::z(r, p);
            let marker = if viability::bf_viable(r, p) { "" } else { "*" };
            print!(" {z:>6.3}{marker}");
            println!("{r},{p},{z},{}", viability::bf_viable(r, p));
        }
        println!();
    }
    csv_end();
    println!("(* = not viable, z >= 0.75)");

    println!("\nMinimum viable partition size I_B/p:");
    for r in [1.0, 2.0, 5.0, 10.0] {
        println!(
            "  I_A/I_B = {r:>4.1}: I_B/p >= {:.2}",
            viability::min_partition_size(r)
        );
    }
    let t1 = viability::min_partition_size(1.0);
    let t10 = viability::min_partition_size(10.0);
    assert!((t1 - 2.83).abs() < 0.01, "threshold at ratio 1");
    assert!((t10 - 6.29).abs() < 0.01, "threshold at ratio 10");
    println!("\nPaper's annotated thresholds reproduced: 2.83 @ ratio 1, 6.29 @ ratio 10.");

    println!("\nNon-PK-FK regime (Section 3.5): BF not beneficial when I_B >= 7.83 I_A —");
    println!(
        "e.g. I_A/I_B = 1/8: min I_B/p = {:.1} (unbounded/negative => infeasible)",
        viability::min_partition_size(1.0 / 8.0)
    );
}
