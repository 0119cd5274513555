//! Table 3: Costs of Cryptographic Primitives.
//!
//! Measures this workspace's real implementations of the operations in the
//! paper's Table 3: BAS (BLS over BN254) individual sign/verify and
//! 1000-signature aggregation/verification; Condensed RSA-1024 ditto, called
//! straight from `authdb_paper::rsa` (a baseline, not a serving scheme);
//! and SHA hashing of 256/512/1024-byte messages. Printed side by side with
//! the paper's "Current" (2009 quad-core) column.

use std::time::Instant;

use authdb_bench::{banner, csv_begin, csv_end, fmt_time};
use authdb_crypto::signer::{Keypair, SchemeKind};
use authdb_crypto::{sha1::sha1, sha256::sha256};
use authdb_paper::rsa::{condense, RsaPrivateKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Row {
    name: &'static str,
    paper: &'static str,
    measured: f64,
}

/// Time one scheme's four Table 3 operations — individual sign and verify
/// (amortized over a few reps), 1000-signature aggregation and aggregate
/// verification — given as closures over the scheme's own types.
fn measure_scheme<S, A>(
    rows: &mut Vec<Row>,
    names: [&'static str; 4],
    paper: [&'static str; 4],
    sign: impl Fn(&[u8]) -> S,
    verify: impl Fn(&[u8], &S) -> bool,
    aggregate: impl Fn(&[S]) -> A,
    verify_aggregate: impl Fn(&[&[u8]], &A) -> bool,
) {
    let msgs: Vec<Vec<u8>> = (0..1000u32).map(|i| i.to_be_bytes().to_vec()).collect();
    let mut row = |i: usize, secs: f64| {
        rows.push(Row {
            name: names[i],
            paper: paper[i],
            measured: secs,
        })
    };

    let reps = 20;
    let t = Instant::now();
    for m in msgs.iter().take(reps) {
        std::hint::black_box(sign(m));
    }
    row(0, t.elapsed().as_secs_f64() / reps as f64);

    let sig = sign(&msgs[0]);
    let t = Instant::now();
    for _ in 0..reps {
        assert!(verify(&msgs[0], &sig));
    }
    row(1, t.elapsed().as_secs_f64() / reps as f64);

    let sigs: Vec<S> = msgs.iter().map(|m| sign(m)).collect();
    let t = Instant::now();
    let agg = aggregate(&sigs);
    row(2, t.elapsed().as_secs_f64());

    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    let t = Instant::now();
    assert!(verify_aggregate(&refs, &agg));
    row(3, t.elapsed().as_secs_f64());
}

fn main() {
    banner(
        "Table 3",
        "Costs of Cryptographic Primitives (paper 'Current' vs ours)",
    );
    let mut rng = StdRng::seed_from_u64(3);
    let mut rows = Vec::new();

    let kp = Keypair::generate(SchemeKind::Bas, &mut rng);
    let pp = kp.public_params();
    measure_scheme(
        &mut rows,
        [
            "BAS signing",
            "BAS verification",
            "BAS 1000-sig aggregation",
            "BAS 1000-sig agg. verification",
        ],
        ["1.5 ms", "40.22 ms", "9.06 ms", "331.349 ms"],
        |m| kp.sign(m),
        |m, s| pp.verify(m, s),
        |s| s.iter().fold(pp.identity(), |acc, s| pp.aggregate(&acc, s)),
        |m, a| pp.verify_aggregate(m, a),
    );
    // Condensed RSA is the paper's baseline, not a serving scheme: it is
    // measured straight from the `rsa` module, with the paper's 1024-bit
    // modulus (its security equivalent of 160-bit ECC).
    let sk = RsaPrivateKey::generate(1024, &mut rng);
    let pk = sk.public_key();
    measure_scheme(
        &mut rows,
        [
            "Condensed-RSA signing",
            "Condensed-RSA verification",
            "C-RSA 1000-sig aggregation",
            "C-RSA 1000-sig agg. verification",
        ],
        ["6.06 ms", "0.087 ms", "0.078 ms", "0.094 ms"],
        |m| sk.sign(m),
        |m, s| pk.verify(m, s),
        |s| condense(pk, s),
        |m, a| pk.verify_condensed(m, a),
    );

    // SHA hashing at the paper's three message sizes (SHA-1 is the paper's
    // hash; SHA-256 is our default — both reported).
    for (len, paper) in [(256usize, "1.35 µs"), (512, "2.28 µs"), (1024, "4.2 µs")] {
        let buf = vec![0xCDu8; len];
        let reps = 200_000;
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(sha1(&buf));
        }
        rows.push(Row {
            name: match len {
                256 => "SHA-1, 256-byte message",
                512 => "SHA-1, 512-byte message",
                _ => "SHA-1, 1024-byte message",
            },
            paper,
            measured: t.elapsed().as_secs_f64() / reps as f64,
        });
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(sha256(&buf));
        }
        rows.push(Row {
            name: match len {
                256 => "SHA-256, 256-byte message",
                512 => "SHA-256, 512-byte message",
                _ => "SHA-256, 1024-byte message",
            },
            paper: "-",
            measured: t.elapsed().as_secs_f64() / reps as f64,
        });
    }

    println!(
        "\n{:<36} | {:>12} | {:>12}",
        "Operation", "Paper (2009)", "Measured"
    );
    println!("{:-<36}-+-{:->12}-+-{:->12}", "", "", "");
    csv_begin("operation,paper,measured_seconds");
    for r in &rows {
        println!(
            "{:<36} | {:>12} | {:>12}",
            r.name,
            r.paper,
            fmt_time(r.measured)
        );
        println!("\"{}\",\"{}\",{:e}", r.name, r.paper, r.measured);
    }
    csv_end();

    // Shape assertions mirroring Section 5.2's findings.
    let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap().measured;
    assert!(
        get("BAS verification") > get("BAS signing"),
        "pairing verification must dominate signing"
    );
    assert!(
        get("Condensed-RSA verification") < get("BAS verification"),
        "RSA verify must be much cheaper than BAS verify"
    );
    assert!(
        get("SHA-1, 512-byte message") < get("BAS signing"),
        "hashing must be orders cheaper than signing"
    );
    println!(
        "\nShape checks passed: BAS verify > BAS sign; RSA verify << BAS verify; hash << sign."
    );
}
