//! Oracle for `ReuseHistogram`: a test-local copy of the dense histogram
//! (one counter per bucket, every bucket serialized) is fed the same random
//! streams of finite distances (0 to 2^40), cold touches and invalidated
//! reuses. Every query, every StatStack miss rate and the JSON must agree
//! with it, byte for byte, and the dense JSON must read back into the
//! histogram that wrote it, whatever its storage.

use proptest::prelude::*;
use rppm_statstack::{ReuseHistogram, StackDistanceModel};
use serde::Serialize;

const EXACT: u64 = 64;
const SUB: u32 = 4;
const OCTAVES: u32 = 40;
const BUCKETS: usize = EXACT as usize + (OCTAVES * SUB) as usize;

fn bucket_of(d: u64) -> usize {
    if d < EXACT {
        d as usize
    } else {
        let o = 63 - d.leading_zeros();
        let sub = ((d >> (o - 2)) & 0x3) as u32;
        let idx = EXACT as usize + ((o - 6) * SUB + sub) as usize;
        idx.min(BUCKETS - 1)
    }
}

fn bucket_lo(i: usize) -> u64 {
    if i < EXACT as usize {
        i as u64
    } else {
        let k = (i - EXACT as usize) as u32;
        let o = k / SUB + 6;
        let sub = (k % SUB) as u64;
        (1u64 << o) + sub * (1u64 << (o - 2))
    }
}

fn bucket_mid(i: usize) -> u64 {
    let lo = bucket_lo(i);
    if i < EXACT as usize {
        lo
    } else {
        let hi = if i + 1 < BUCKETS {
            bucket_lo(i + 1)
        } else {
            lo * 2
        };
        lo + (hi - lo) / 2
    }
}

/// The dense reference: the histogram as it was stored before it kept only
/// its non-empty buckets. Field names and order are the JSON's.
#[derive(Debug, Clone, Serialize)]
struct Dense {
    counts: Vec<u64>,
    cold: u64,
    invalidated: u64,
    total_finite: u64,
}

impl Dense {
    fn new() -> Self {
        Dense {
            counts: vec![0; BUCKETS],
            cold: 0,
            invalidated: 0,
            total_finite: 0,
        }
    }

    fn record(&mut self, d: u64) {
        self.counts[bucket_of(d)] += 1;
        self.total_finite += 1;
    }

    fn total(&self) -> u64 {
        self.total_finite + self.cold + self.invalidated
    }

    fn always_miss_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.cold + self.invalidated) as f64 / t as f64
        }
    }

    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_mid(i), c))
    }

    fn mean_finite(&self) -> Option<f64> {
        if self.total_finite == 0 {
            return None;
        }
        let sum: f64 = self.iter().map(|(d, c)| d as f64 * c as f64).sum();
        Some(sum / self.total_finite as f64)
    }

    /// StatStack's fully-associative miss rate over the dense buckets, as
    /// `StackDistanceModel::miss_rate` computes it.
    fn miss_rate(&self, capacity: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        if capacity == 0 {
            return 1.0;
        }
        let buckets: Vec<(u64, u64)> = self.iter().collect();
        let stack_distance = |r: u64| {
            let truncated: f64 = buckets
                .iter()
                .take_while(|&&(d, _)| d < r)
                .map(|&(d, m)| m as f64 * (r as f64 - d as f64))
                .sum();
            (r as f64 - truncated / total as f64).max(0.0)
        };
        let (mut lo, mut hi) = (capacity, capacity);
        while stack_distance(hi) < capacity as f64 {
            if hi > (1 << 62) {
                return (self.cold + self.invalidated) as f64 / total as f64;
            }
            hi *= 2;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if stack_distance(mid) >= capacity as f64 {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let finite: u64 = buckets.iter().filter(|&&(d, _)| d >= lo).map(|b| b.1).sum();
        (finite + self.cold + self.invalidated) as f64 / total as f64
    }
}

/// One stream event: `(kind, octave, draw)`. Kind 0 is a cold touch, 1 an
/// invalidated reuse, anything else a finite distance below `2^octave`, so
/// short and long distances are both common.
type Event = (u32, u32, u64);

fn feed(events: &[Event]) -> (ReuseHistogram, Dense) {
    let mut h = ReuseHistogram::new();
    let mut d = Dense::new();
    for &(kind, octave, draw) in events {
        match kind {
            0 => {
                h.record_cold(1 + draw % 3);
                d.cold += 1 + draw % 3;
            }
            1 => {
                h.record_invalidated(1);
                d.invalidated += 1;
            }
            _ => {
                let distance = draw % (1u64 << octave);
                h.record(distance);
                d.record(distance);
            }
        }
    }
    (h, d)
}

fn assert_matches(h: &ReuseHistogram, d: &Dense) {
    assert_eq!(h.iter().collect::<Vec<_>>(), d.iter().collect::<Vec<_>>());
    assert_eq!(h.total(), d.total());
    assert_eq!(h.total_finite(), d.total_finite);
    assert_eq!(h.is_empty(), d.total() == 0);
    assert_eq!(
        h.mean_finite().map(f64::to_bits),
        d.mean_finite().map(f64::to_bits)
    );
    assert_eq!(
        h.always_miss_fraction().to_bits(),
        d.always_miss_fraction().to_bits()
    );
    assert_eq!((h.cold, h.invalidated), (d.cold, d.invalidated));

    let model = StackDistanceModel::new(h);
    for lines in [0u64, 1, 3, 64, 512, 4096, 131_072, 1 << 20, 1 << 34] {
        assert_eq!(
            model.miss_rate(lines).to_bits(),
            d.miss_rate(lines).to_bits(),
            "{lines} lines"
        );
    }

    // The JSON is the dense form, byte for byte, and reads back exactly.
    let json = serde_json::to_string(d).expect("dense histogram serializes");
    let from_dense: ReuseHistogram = serde_json::from_str(&json).expect("dense JSON reads");
    assert_eq!(serde_json::to_string(h).expect("serializes"), json);
    assert_eq!(&from_dense, h);
    assert_eq!(
        serde_json::to_string(&from_dense).expect("serializes"),
        json
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compact_histogram_matches_the_dense_reference(
        events in proptest::collection::vec((0u32..8, 0u32..41, 0u64..u64::MAX), 0..400),
    ) {
        let (h, d) = feed(&events);
        assert_matches(&h, &d);
    }
}

#[test]
fn every_bucket_round_trips() {
    // One distance per bucket (the lower edge of each), plus an empty and
    // a cold-only histogram: the extremes of the stored form.
    let events: Vec<Event> = (0..BUCKETS)
        .map(|i| (2, 63, bucket_lo(i)))
        .chain([(2, 41, u64::MAX), (0, 0, 2), (1, 0, 0)])
        .collect();
    let (h, d) = feed(&events);
    assert_eq!(h.iter().count(), BUCKETS);
    assert_matches(&h, &d);
    let (h, d) = feed(&[]);
    assert_matches(&h, &d);
    let (h, d) = feed(&[(0, 0, 0), (1, 0, 0)]);
    assert_matches(&h, &d);
}

#[test]
fn the_model_reads_recorded_and_dense_histograms_alike() {
    // Long random streams: the set-associative miss rates the predictor
    // queries at the Table IV geometries are the same bits whether the
    // histogram was recorded or read from the dense JSON.
    let geometries = [
        rppm_trace::CacheGeometry::new(32 << 10, 8, 64, 4),
        rppm_trace::CacheGeometry::new(256 << 10, 8, 64, 12),
        rppm_trace::CacheGeometry::new(8 << 20, 16, 64, 35),
    ];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..8 {
        let events: Vec<Event> = (0..20_000)
            .map(|_| ((next() % 16) as u32, (next() % 41) as u32, next()))
            .collect();
        let (h, d) = feed(&events);
        assert_matches(&h, &d);
        let json = serde_json::to_string(&d).expect("serializes");
        let dense: ReuseHistogram = serde_json::from_str(&json).expect("reads");
        let (a, b) = (StackDistanceModel::new(&h), StackDistanceModel::new(&dense));
        for g in &geometries {
            assert_eq!(a.miss_rate_geom(g).to_bits(), b.miss_rate_geom(g).to_bits());
        }
    }
}
