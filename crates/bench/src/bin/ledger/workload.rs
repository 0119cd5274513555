//! The four workloads and their seeded operation streams. Nothing here
//! touches the system under test: a [`Generator`] turns `(workload, seed)`
//! into cycles of plain keys, rids and values, and the runner feeds those to
//! `sut.rs`. The same seed gives the same stream ([`stream_digest`]).
//!
//! Keys are `i * KEY_STRIDE`; record `i` lives in shard `i / per_shard`
//! with rid `i % per_shard` (bootstrap assigns rids in row order and rows
//! are generated in key order). A key move stays inside the record's own
//! decade `[10i, 10i+9]`, which no other record ever uses, so the moved-to
//! key is always unused, the shard never changes, and N, the rid space and
//! the record count of a decade-aligned range all stay stationary.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const KEY_STRIDE: i64 = 10;
/// Summary period ρ of the two live workloads, in ticks (one tick a cycle).
pub const RHO: u64 = 8;
/// Every shard's summary log is checkpointed every this many periods…
pub const CHECKPOINT_EVERY: u64 = 4;
/// …keeping this many summaries.
pub const CHECKPOINT_KEEP: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    /// Real BAS signatures (pairings on the client) or the Mock scheme.
    pub bas: bool,
    pub n: usize,
    pub shards: usize,
    /// The clock ticks once a cycle, summaries are published when due and
    /// checkpointed on the cadence above.
    pub live: bool,
    pub updates_per_cycle: usize,
    /// Every `move_every`-th update moves the key (0 = never).
    pub move_every: u64,
    /// Selections per cycle; more than one is a pipelined window.
    pub window: usize,
    pub records_per_selection: usize,
    /// Every `absent_every`-th point selection asks for a key between two
    /// records and gets a gap proof (0 = never).
    pub absent_every: u64,
    /// Every `seam_every`-th range is centred on a split key (0 = never).
    pub seam_every: u64,
    /// Cycles of the traced run: fixed, so its counts repeat exactly.
    pub traced_cycles: u64,
    /// Cycles in a round of the measure phase: a stretch of the stream that
    /// repeats the same work (a multiple of every period above), short
    /// enough that the host now and then leaves a whole one alone.
    pub round: usize,
    /// How rounds are compared. By position: the k-th cycles of all rounds
    /// with each other — for a live workload whose cycles differ by where in
    /// the checkpoint round they fall and whose round holds too few answers
    /// for rank statistics. By rank otherwise: the k-th fastest samples of
    /// all rounds with each other.
    pub by_position: bool,
}

/// Cycles after which a live workload's maintenance repeats.
pub const CHECKPOINT_ROUND: usize = (CHECKPOINT_EVERY * RHO) as usize;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "point_bas",
        bas: true,
        n: 16_384,
        shards: 8,
        live: false,
        updates_per_cycle: 0,
        move_every: 0,
        window: 1,
        records_per_selection: 1,
        absent_every: 10,
        seam_every: 0,
        traced_cycles: 1_500,
        // Half a second, 120 answers.
        round: 120,
        by_position: false,
    },
    Spec {
        name: "range_live_bas",
        bas: true,
        n: 16_384,
        shards: 8,
        live: true,
        updates_per_cycle: 2,
        move_every: 0,
        window: 1,
        records_per_selection: 32,
        absent_every: 0,
        seam_every: 4,
        traced_cycles: 300,
        // 0.8 s, 32 answers of 14 to 45 ms by position.
        round: CHECKPOINT_ROUND,
        by_position: true,
    },
    Spec {
        name: "bulk_mock",
        bas: false,
        n: 262_144,
        shards: 4,
        live: false,
        updates_per_cycle: 0,
        move_every: 0,
        window: 256,
        records_per_selection: 1,
        absent_every: 0,
        seam_every: 0,
        traced_cycles: 200,
        // 80 ms, 8 192 answers.
        round: 32,
        by_position: false,
    },
    Spec {
        name: "churn_mock",
        bas: false,
        n: 16_384,
        shards: 8,
        live: true,
        updates_per_cycle: 32,
        move_every: 4,
        window: 1,
        records_per_selection: 16,
        absent_every: 0,
        seam_every: 0,
        traced_cycles: 1_000,
        // 0.2 s, 128 answers whose latency is mostly the event loop's tick.
        round: 4 * CHECKPOINT_ROUND,
        by_position: false,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `--smoke` shape: a sixteenth of the records, a tenth of the
    /// traced cycles and one period a round, so a debug-build test finishes
    /// in well under a second. Numbers from it are not comparable with a
    /// real run.
    pub fn smoke(mut self) -> Spec {
        self.n /= 16;
        self.traced_cycles /= 10;
        self.round = self.period();
        self
    }

    /// Cycles after which the stream and the maintenance repeat.
    pub fn period(&self) -> usize {
        let lcm = |a: usize, b: usize| {
            let (mut x, mut y) = (a, b);
            while y > 0 {
                (x, y) = (y, x % y);
            }
            a / x * b
        };
        let mix = lcm(
            self.absent_every.max(1) as usize,
            self.seam_every.max(1) as usize,
        );
        lcm(mix, if self.live { CHECKPOINT_ROUND } else { 1 })
    }

    pub fn per_shard(&self) -> usize {
        self.n / self.shards
    }

    /// Split keys of the certified shard map: equal key ranges.
    pub fn splits(&self) -> Vec<i64> {
        (1..self.shards)
            .map(|s| (s * self.per_shard()) as i64 * KEY_STRIDE)
            .collect()
    }

    /// The initial relation in key order: `[key, value]` rows.
    pub fn rows(&self) -> Vec<Vec<i64>> {
        (0..self.n as i64)
            .map(|i| vec![i * KEY_STRIDE, i])
            .collect()
    }
}

/// One record update: new attribute values for `rid` of `shard`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Update {
    pub shard: usize,
    pub rid: u64,
    pub attrs: Vec<i64>,
}

/// One cycle of the closed loop: updates first, then the selections (one,
/// or a pipelined window), each an inclusive key range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cycle {
    pub updates: Vec<Update>,
    pub queries: Vec<(i64, i64)>,
}

/// "Every `k`-th", with `k = 0` meaning never.
fn every(nth: u64, k: u64) -> bool {
    k > 0 && nth.is_multiple_of(k)
}

pub struct Generator {
    spec: Spec,
    rng: StdRng,
    cycle: u64,
    updates: u64,
    /// Current offset of each record's key inside its decade.
    offset: Vec<u8>,
}

impl Generator {
    pub fn new(spec: Spec, seed: u64) -> Self {
        Generator {
            spec,
            // Its own stream: key generation and the verifier's RLC
            // coefficients draw from differently derived seeds.
            rng: StdRng::seed_from_u64(seed ^ 0x6c65_6467_6572_5f6f),
            cycle: 0,
            updates: 0,
            offset: vec![0; spec.n],
        }
    }

    fn update(&mut self) -> Update {
        let spec = self.spec;
        let i = self.rng.gen_range(0..spec.n);
        self.updates += 1;
        if every(self.updates, spec.move_every) {
            // Any of the nine other offsets of the record's own decade.
            let step = self.rng.gen_range(1..KEY_STRIDE as u8);
            self.offset[i] = (self.offset[i] + step) % KEY_STRIDE as u8;
        }
        Update {
            shard: i / spec.per_shard(),
            rid: (i % spec.per_shard()) as u64,
            attrs: vec![
                i as i64 * KEY_STRIDE + i64::from(self.offset[i]),
                self.rng.gen_range(0..1_000_000),
            ],
        }
    }

    fn query(&mut self, nth: u64) -> (i64, i64) {
        let spec = self.spec;
        let len = spec.records_per_selection;
        if len == 1 {
            let key = self.rng.gen_range(0..spec.n) as i64 * KEY_STRIDE;
            let absent = every(nth, spec.absent_every);
            let key = if absent { key + KEY_STRIDE / 2 } else { key };
            return (key, key);
        }
        // `len` whole decades: exactly `len` records wherever keys sit
        // inside their decades.
        let first = if every(nth, spec.seam_every) {
            self.rng.gen_range(1..spec.shards) * spec.per_shard() - len / 2
        } else {
            self.rng.gen_range(0..=spec.n - len)
        };
        let lo = first as i64 * KEY_STRIDE;
        (lo, lo + len as i64 * KEY_STRIDE - 1)
    }

    pub fn next_cycle(&mut self) -> Cycle {
        self.cycle += 1;
        let updates = (0..self.spec.updates_per_cycle)
            .map(|_| self.update())
            .collect();
        let base = (self.cycle - 1) * self.spec.window as u64;
        let queries = (1..=self.spec.window as u64)
            .map(|q| self.query(base + q))
            .collect();
        Cycle { updates, queries }
    }
}

/// FNV-1a digest of the first `cycles` cycles of a stream.
pub fn stream_digest(spec: Spec, seed: u64, cycles: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: i64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut g = Generator::new(spec, seed);
    for _ in 0..cycles {
        let c = g.next_cycle();
        for u in &c.updates {
            eat(u.shard as i64);
            eat(u.rid as i64);
            u.attrs.iter().copied().for_each(&mut eat);
        }
        for &(lo, hi) in &c.queries {
            eat(lo);
            eat(hi);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in WORKLOADS {
            let a = stream_digest(spec, 7, 50);
            assert_eq!(a, stream_digest(spec, 7, 50), "{}", spec.name);
            assert_ne!(a, stream_digest(spec, 8, 50), "{}", spec.name);
        }
    }

    #[test]
    fn rounds_hold_whole_periods() {
        for spec in WORKLOADS {
            for s in [spec, spec.smoke()] {
                assert!(s.round > 0 && s.round % s.period() == 0, "{}", s.name);
            }
            // Position by position only where one period is the round.
            assert!(!spec.by_position || spec.round == spec.period());
        }
    }

    #[test]
    fn streams_have_the_advertised_shape() {
        for spec in WORKLOADS {
            let mut g = Generator::new(spec, 3);
            let mut absent = 0;
            let mut seams = 0;
            let mut moves = 0;
            let cycles: u64 = 40;
            for _ in 0..cycles {
                let c = g.next_cycle();
                assert_eq!(c.updates.len(), spec.updates_per_cycle);
                assert_eq!(c.queries.len(), spec.window);
                for u in &c.updates {
                    assert!(u.shard < spec.shards && (u.rid as usize) < spec.per_shard());
                    let i = u.shard * spec.per_shard() + u.rid as usize;
                    // Updates stay inside the record's own decade.
                    assert_eq!(u.attrs[0].div_euclid(KEY_STRIDE), i as i64);
                    moves += usize::from(u.attrs[0] % KEY_STRIDE != 0);
                }
                for &(lo, hi) in &c.queries {
                    assert!(0 <= lo && lo <= hi && hi < spec.n as i64 * KEY_STRIDE);
                    if spec.records_per_selection == 1 {
                        absent += usize::from(lo % KEY_STRIDE != 0);
                    } else {
                        assert_eq!(
                            (hi + 1 - lo) / KEY_STRIDE,
                            spec.records_per_selection as i64
                        );
                        let splits = spec.splits();
                        seams += usize::from(splits.iter().any(|&s| lo < s && s <= hi));
                    }
                }
            }
            let expect = |k: u64| cycles.checked_div(k).unwrap_or(0);
            assert_eq!(absent as u64, expect(spec.absent_every));
            assert!(seams as u64 >= expect(spec.seam_every));
            assert_eq!(moves > 0, spec.move_every > 0, "{}", spec.name);
        }
    }
}
