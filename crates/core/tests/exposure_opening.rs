//! Property test: **an opening of a checkpoint's exposure map says exactly
//! what the whole map says, about the rids it was asked for and nothing
//! else — and only as long as not one bit of it is touched**.
//!
//! The oracle is the plain `Vec<u64>` the commitment was made over: for
//! random maps (empty, one entry, lengths on and off a chunk multiple, many
//! chunks) and random rid sets (empty, repeated, past the end, scattered,
//! contiguous), the opening hashes to the signed root, answers every
//! requested rid as the map does and refuses every rid of a chunk it does
//! not hold, is the same bytes whichever way it is asked for, and stops
//! hashing to the root under any single change to an entry, a chunk index or
//! a sibling, and under a dropped or surplus sibling.
//!
//! Then the size claim the committed form exists for: what a live answer
//! carries of its checkpoint grows with the logarithm of the shard, not
//! with the shard.

use proptest::prelude::*;

use authdb_core::da::DaConfig;
use authdb_core::freshness::{Exposure, ExposureTree, SummaryCheckpoint, Unopened, EXPOSURE_CHUNK};
use authdb_crypto::signer::{Keypair, SchemeKind};
use authdb_testkit::deploy::Deployment;
use authdb_wire::WireEncode;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CHUNK: u64 = EXPOSURE_CHUNK as u64;

/// The whole-map form of `map`, as a checkpoint commits to it.
fn commit(map: &[u64]) -> Exposure {
    let kp = Keypair::generate(SchemeKind::Mock, &mut StdRng::seed_from_u64(0));
    SummaryCheckpoint::create(&kp, 0, 0, 0, 0, map).exposure
}

/// A map of `len` entries, most of them unmarked, a few distinct periods.
fn map_of(len: usize, seed: u64) -> Vec<u64> {
    (0..len as u64)
        .map(|rid| {
            let x = (rid ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            if x.is_multiple_of(3) {
                (x % 5 + 1) * 10 + 1
            } else {
                0
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn an_opening_is_the_map_for_its_rids_and_breaks_under_any_change(
        len in (0u8..3, 0usize..600),
        seed in any::<u64>(),
        scattered in prop::collection::vec(any::<u64>(), 0..12),
        run in (any::<u64>(), 0u64..40),
        pick in any::<u64>(),
    ) {
        // Next to nothing, around a chunk boundary or two, many chunks.
        let len = match len {
            (0, raw) => raw % 3,
            (1, raw) => 14 + raw % 22,
            (_, raw) => 100 + raw,
        };
        let map = map_of(len, seed);
        let whole = commit(&map);
        let tree = ExposureTree::build(&whole.chunks);
        prop_assert!(whole.opens_to_root() && whole.siblings.is_empty());
        prop_assert_eq!(whole.root, tree.root());
        prop_assert_eq!(whole.max, map.iter().copied().max().unwrap_or(0));
        prop_assert!(whole.max == 0 || map[whole.max_rid as usize] == whole.max);
        prop_assert_eq!(whole.clone().into_map(), map.clone());

        // Scattered rids (two thirds inside the map, a third anywhere — so
        // mostly past its end), a contiguous run, and some of them twice.
        let span = len as u64 + 3;
        let mut rids: Vec<u64> = scattered
            .iter()
            .map(|&r| if r.is_multiple_of(3) { r } else { r % span })
            .collect();
        rids.extend((0..run.1).map(|k| run.0 % span + k));
        rids.extend(rids.clone().iter().step_by(3));
        let opened = tree.open(&whole, rids.iter().copied());

        // Same commitment, a valid opening, the oracle's answer per rid.
        prop_assert_eq!(
            (opened.len, opened.max, opened.max_rid, opened.root),
            (whole.len, whole.max, whole.max_rid, whole.root)
        );
        prop_assert!(opened.opens_to_root());
        for &rid in &rids {
            let want = map.get(rid as usize).copied().unwrap_or(0);
            prop_assert_eq!(opened.entry(rid), Ok(want));
        }
        // Nothing but the requested rids' chunks is in it.
        let asked = |at: u64| rids.iter().any(|&r| r < len as u64 && r / CHUNK == at);
        for at in 0..(len as u64).div_ceil(CHUNK) {
            let held = opened.chunks.iter().any(|c| c.0 == at);
            prop_assert_eq!(held, asked(at));
            if !held {
                prop_assert_eq!(opened.entry(at * CHUNK), Err(Unopened));
            }
        }
        // One value, one byte form: reversed, the same opening, byte for
        // byte (the ledger compares an in-process answer with a networked
        // one).
        let again = tree.open(&whole, rids.iter().rev().copied());
        prop_assert_eq!(again.encode(), opened.encode());

        // Any single change to what is opened breaks it.
        let at = |n: usize, salt: u32| (pick.rotate_left(salt) % n.max(1) as u64) as usize;
        let bit = |salt: u32| 1u64 << (pick.rotate_left(salt) % 64);
        if !opened.chunks.is_empty() {
            let k = at(opened.chunks.len(), 0);
            let mut doctored = opened.clone();
            doctored.chunks[k].1[at(EXPOSURE_CHUNK, 7)] ^= bit(13);
            prop_assert!(!doctored.opens_to_root(), "entry");
            let mut doctored = opened.clone();
            doctored.chunks[k].0 ^= bit(19);
            // Equal chunks hash alike wherever they sit: moving one onto a
            // position whose own chunk and siblings are the same is not a
            // change to anything the map says.
            let moved_to = doctored.chunks[k].0 as usize;
            let same = whole.chunks.get(moved_to).is_some_and(|c| c.1 == opened.chunks[k].1);
            prop_assert!(!doctored.opens_to_root() || same, "index");
            let mut doctored = opened.clone();
            doctored.siblings.push([0; 32]);
            prop_assert!(!doctored.opens_to_root(), "surplus sibling");
        }
        if !opened.siblings.is_empty() {
            let k = at(opened.siblings.len(), 23);
            let mut doctored = opened.clone();
            doctored.siblings[k][at(32, 29)] ^= 1 << (pick % 8);
            prop_assert!(!doctored.opens_to_root(), "sibling");
            let mut doctored = opened.clone();
            doctored.siblings.remove(k);
            prop_assert!(!doctored.opens_to_root(), "dropped sibling");
        }
        // An opening of nothing lists nothing.
        let mut bare = tree.open(&whole, []);
        prop_assert!(bare.chunks.is_empty() && bare.opens_to_root());
        bare.siblings.push(whole.root);
        prop_assert!(!bare.opens_to_root());
    }
}

/// The checkpoint a one-shard deployment of `n` records attaches to its
/// answer for the 16 records from rid `first` on.
fn attached_checkpoint(n: i64, first: i64) -> SummaryCheckpoint {
    let rows: Vec<Vec<i64>> = (0..n).map(|i| vec![i * 10, i]).collect();
    let mut d = Deployment::new(DaConfig::small(), &rows, vec![], 5);
    for _ in 0..3 {
        d.sa.advance_clock(10);
        d.publish();
    }
    d.checkpoint(0, 1).expect("compactable");
    let (lo, hi) = (first * 10, (first + 15) * 10);
    let mut ans = d.select(lo, hi);
    assert_eq!(d.verify(lo, hi, &ans).map(|r| r.records), Ok(16));
    let part = ans.parts.remove(0).answer;
    part.checkpoint.expect("checkpoint attached")
}

#[test]
fn an_answers_checkpoint_grows_with_the_logarithm_of_the_shard() {
    // Rids 500..=515 straddle two chunks: two paths to the root.
    let small = attached_checkpoint(1 << 10, 500);
    let large = attached_checkpoint(1 << 16, 500);
    assert_eq!(small.exposure.len, 1 << 10);
    assert_eq!(large.exposure.len, 1 << 16);
    assert_eq!(small.exposure.chunks.len(), 2);
    assert_eq!(large.exposure.chunks, small.exposure.chunks);
    let (small, large) = (small.encode().len(), large.encode().len());
    // Six doublings: at most six more 32-byte siblings per path — where the
    // whole map would have grown by 8 · (2¹⁶ − 2¹⁰) bytes.
    assert!(
        large > small && large - small <= 2 * 6 * 32,
        "{small} → {large}"
    );
    assert!(large < 1_000, "{large}");
}
