//! Pins [`EntropyCollector`] bit for bit against a straightforward
//! reference: one hash map per profiled history length and site, probed once
//! per length for every dynamic branch.
//!
//! Random branch streams over 1–40 sites, each site with its own behaviour
//! (biased coin, periodic loop, noisy loop, or a fair coin long enough to
//! visit all 4,096 twelve-bit histories), must give the same
//! [`BranchProfile`] — every `f64` compared by bit pattern.

use rppm_branch_model::{BranchProfile, EntropyCollector, HIST_LENGTHS};
use rppm_statstack::FxHashMap;
use rppm_trace::Rng;

#[derive(Default, Clone, Copy)]
struct Counts {
    taken: u64,
    total: u64,
    errors: u64,
}

struct SiteReference {
    history: u64,
    observed: u64,
    tables: Vec<FxHashMap<u64, Counts>>,
}

impl Default for SiteReference {
    fn default() -> Self {
        SiteReference {
            history: 0,
            observed: 0,
            tables: (0..HIST_LENGTHS.len())
                .map(|_| FxHashMap::default())
                .collect(),
        }
    }
}

impl SiteReference {
    fn record(&mut self, taken: bool) {
        for (k, &h) in HIST_LENGTHS.iter().enumerate() {
            let key = if h == 0 {
                0
            } else {
                self.history & ((1u64 << h) - 1)
            };
            let e = self.tables[k].entry(key).or_default();
            let predict_taken = 2 * e.taken >= e.total;
            if predict_taken != taken {
                e.errors += 1;
            }
            e.taken += taken as u64;
            e.total += 1;
        }
        self.history = (self.history << 1) | taken as u64;
        self.observed += 1;
    }

    fn floors(&self) -> [f64; HIST_LENGTHS.len()] {
        let mut m = [0.0; HIST_LENGTHS.len()];
        if self.observed == 0 {
            return m;
        }
        for (k, table) in self.tables.iter().enumerate() {
            let wrong: u64 = table.values().map(|c| c.errors).sum();
            m[k] = wrong as f64 / self.observed as f64;
        }
        m
    }
}

#[derive(Default)]
struct Reference {
    sites: FxHashMap<u32, SiteReference>,
    branches: u64,
}

impl Reference {
    fn record(&mut self, site: u32, taken: bool) {
        self.sites.entry(site).or_default().record(taken);
        self.branches += 1;
    }

    fn finish(self) -> BranchProfile {
        let mut m = [0.0; HIST_LENGTHS.len()];
        let mut patterns = 0u64;
        if self.branches > 0 {
            let mut sites: Vec<(&u32, &SiteReference)> = self.sites.iter().collect();
            sites.sort_unstable_by_key(|(id, _)| **id);
            for (_, site) in sites {
                let w = site.observed as f64 / self.branches as f64;
                let f = site.floors();
                for k in 0..HIST_LENGTHS.len() {
                    m[k] += w * f[k];
                }
                patterns += site.tables.last().map_or(0, |t| t.len() as u64);
            }
        }
        BranchProfile {
            branches: self.branches,
            m,
            static_sites: self.sites.len() as u32,
            patterns,
        }
    }
}

/// How one site's outcomes are drawn.
#[derive(Clone, Copy)]
enum Behaviour {
    Biased(f64),
    Loop(u64),
    NoisyLoop(u64, f64),
    Coin,
}

fn behaviour(rng: &mut Rng) -> Behaviour {
    match rng.next_below(4) {
        0 => Behaviour::Biased(rng.next_f64()),
        1 => Behaviour::Loop(1 + rng.next_below(20)),
        2 => Behaviour::NoisyLoop(1 + rng.next_below(20), rng.next_f64() * 0.2),
        _ => Behaviour::Coin,
    }
}

fn outcome(b: Behaviour, n: u64, rng: &mut Rng) -> bool {
    match b {
        Behaviour::Biased(p) => rng.chance(p),
        Behaviour::Loop(period) => n % period != period - 1,
        Behaviour::NoisyLoop(period, noise) => (n % period != period - 1) ^ rng.chance(noise),
        Behaviour::Coin => rng.chance(0.5),
    }
}

fn assert_same(stream: &[(u32, bool)]) {
    let mut reference = Reference::default();
    let mut collector = EntropyCollector::new();
    for &(site, taken) in stream {
        reference.record(site, taken);
        collector.record(site, taken);
    }
    assert_eq!(collector.branches(), stream.len() as u64);
    let want = reference.finish();
    let got = collector.finish();
    assert_eq!(got.branches, want.branches);
    assert_eq!(got.static_sites, want.static_sites);
    assert_eq!(got.patterns, want.patterns);
    for (k, (g, w)) in got.m.iter().zip(&want.m).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "m[{k}]: {g} vs {w}");
    }
}

/// A random stream over `sites` sites (ids spread over `u32`), `len`
/// branches long, sites visited with skewed frequencies.
fn random_stream(seed: u64, sites: usize, len: usize) -> Vec<(u32, bool)> {
    let mut rng = Rng::new(seed);
    let ids: Vec<u32> = (0..sites).map(|_| rng.next_u64() as u32).collect();
    let kinds: Vec<Behaviour> = (0..sites).map(|_| behaviour(&mut rng)).collect();
    let mut seen = vec![0u64; sites];
    (0..len)
        .map(|_| {
            // Squaring a uniform draw skews visits toward low site numbers.
            let u = rng.next_f64();
            let s = ((u * u) * sites as f64) as usize % sites;
            let taken = outcome(kinds[s], seen[s], &mut rng);
            seen[s] += 1;
            (ids[s], taken)
        })
        .collect()
}

#[test]
fn entropy_matches_reference_on_random_streams() {
    let mut draw = Rng::new(0xE7);
    for case in 0..48u64 {
        let sites = 1 + draw.next_below(40) as usize;
        let len = draw.next_below(20_000) as usize;
        assert_same(&random_stream(case ^ draw.next_u64(), sites, len));
    }
}

#[test]
fn entropy_matches_reference_with_every_long_history() {
    // Fair coins long enough that each site sees all 4,096 twelve-bit
    // histories, interleaved with a loop site and a biased site.
    let mut rng = Rng::new(12);
    let mut stream = Vec::new();
    for n in 0..120_000u64 {
        let (site, taken) = match n % 4 {
            0 | 1 => ((n % 4) as u32, rng.chance(0.5)),
            2 => (7, n % 9 != 8),
            _ => (u32::MAX, rng.chance(0.9)),
        };
        stream.push((site, taken));
    }
    assert_same(&stream);
    let mut c = EntropyCollector::new();
    for &(site, taken) in &stream {
        c.record(site, taken);
    }
    let p = c.finish();
    assert!(p.patterns >= 2 * 4096, "patterns {}", p.patterns);
}

#[test]
fn entropy_matches_reference_on_empty_and_single_branch_streams() {
    assert_same(&[]);
    assert_same(&[(3, true)]);
    assert_same(&[(3, false)]);
}
