//! The four workloads: how each builds its inputs from the seed, runs one
//! pass to its verdicts, and checks them against known answers written
//! here by hand (never read back from the code under test).

use std::panic::{catch_unwind, AssertUnwindSafe};

use eclectic_kernel::{Budget, LazyClosure, Rel, RelBackend};
use eclectic_spec::domains::{bank, courses, library};
use eclectic_spec::fuzz::{build_domain, FuzzConfig};
use eclectic_spec::{verify_with_threads, TriLevelSpec, VerificationOutcome, VerifyConfig};

/// Failures of the benchmark itself (set-up that cannot proceed).
pub type R<T> = Result<T, String>;

/// The benchmark's workloads; see `BENCHMARK.json` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `courses`, `library` and `bank` at the CLI's `verify` bounds.
    Packaged,
    /// `bank` scaled so the PDL obligations cover a 16,384-state universe.
    PdlBank,
    /// [`FACTORY_DOMAINS`] generated domains, one default-engine run each.
    Factory,
    /// The 2²⁰-state block-ring closure and its lazy modal sweeps.
    RelCapstone,
}

/// Every workload, in the order `--workload all` runs them.
pub const ALL: [Workload; 4] = [
    Workload::Packaged,
    Workload::PdlBank,
    Workload::Factory,
    Workload::RelCapstone,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Packaged => "packaged",
            Workload::PdlBank => "pdl-bank",
            Workload::Factory => "factory",
            Workload::RelCapstone => "rel-capstone",
        }
    }
}

/// Generated domains per `factory` input set.
const FACTORY_DOMAINS: u64 = 64;

/// Size of the PDL universe `pdl-bank` must check: bank with 2 accounts
/// and 5 amounts has 2¹⁴ representation states.
const PDL_BANK_UNIVERSE: usize = 1 << 14;

/// States of the capstone relation.
const CAPSTONE_STATES: usize = 1 << 20;

/// Block size of the capstone ring: state `i` steps to the next state of
/// its 64-state block, so every closure row is its whole block.
const CAPSTONE_BLOCK: usize = 64;

/// Relation-byte budget of the capstone closure (64 MiB).
const CAPSTONE_BUDGET_BYTES: usize = 64 << 20;

/// SplitMix64: the benchmark's own seed expander, so input generation does
/// not depend on the code under test.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The verdict a job must reach.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// Every obligation holds and no stage ran out of budget.
    Correct,
    /// As `Correct`, and the PDL obligations actually ran (were not
    /// skipped) over a universe of exactly this many states.
    CorrectWithPdl { universe: usize },
    /// What `build_domain` documents for generated domains: no error, and
    /// every obligation other than (c) holds, with no stage exhausted.
    AllButWitness,
}

/// One `verify` call of a workload.
pub struct Job {
    pub name: String,
    pub spec: TriLevelSpec,
    pub config: VerifyConfig,
    pub expect: Expect,
}

/// A workload's inputs, built once per set-up.
pub enum Inputs {
    Verify(Vec<Job>),
    Capstone(Capstone),
}

/// Builds a workload's inputs from `seed`.
pub fn setup(w: Workload, seed: u64) -> R<Inputs> {
    match w {
        Workload::Packaged => packaged(seed).map(Inputs::Verify),
        Workload::PdlBank => pdl_bank().map(Inputs::Verify),
        Workload::Factory => factory(seed).map(Inputs::Verify),
        Workload::RelCapstone => Ok(Inputs::Capstone(Capstone::new(seed))),
    }
}

/// The CLI's `eclectic verify` configuration: quick bounds at depth 8.
fn cli_config() -> VerifyConfig {
    let mut c = VerifyConfig::quick();
    c.refine12.limits.max_depth = 8;
    c
}

/// The three packaged domains at their defaults, in a seed-shuffled order
/// (the seed changes only the order in which the verdicts are reached).
fn packaged(seed: u64) -> R<Vec<Job>> {
    let job = |name: &str, spec: eclectic_spec::Result<TriLevelSpec>| -> R<Job> {
        Ok(Job {
            name: name.into(),
            spec: spec.map_err(|e| format!("{name}: {e}"))?,
            config: cli_config(),
            expect: Expect::Correct,
        })
    };
    let mut jobs = vec![
        job(
            "courses",
            courses::courses(&courses::CoursesConfig::default()),
        )?,
        job(
            "library",
            library::library(&library::LibraryConfig::default()),
        )?,
        job("bank", bank::bank(&bank::BankConfig::default()))?,
    ];
    let mut state = seed;
    for i in (1..jobs.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        jobs.swap(i, j);
    }
    Ok(jobs)
}

/// `bank` with 2 accounts × 5 amounts, exploration depth 12 and a PDL cap
/// of 16,384 states, so the dynamic obligations run instead of being
/// skipped as they are at the default cap.
fn pdl_bank() -> R<Vec<Job>> {
    let spec = bank::bank(&bank::BankConfig::sized(2, 5)).map_err(|e| format!("bank: {e}"))?;
    let mut config = VerifyConfig::quick();
    config.refine12.limits.max_depth = 12;
    config.pdl_universe_cap = PDL_BANK_UNIVERSE;
    Ok(vec![Job {
        name: "bank-2x5".into(),
        spec,
        config,
        expect: Expect::CorrectWithPdl {
            universe: PDL_BANK_UNIVERSE,
        },
    }])
}

/// The generated domain seeds of a `factory` input set: `FACTORY_DOMAINS`
/// consecutive seeds starting at `seed · FACTORY_DOMAINS`.
fn factory_seeds(seed: u64) -> impl Iterator<Item = u64> {
    let base = seed.wrapping_mul(FACTORY_DOMAINS);
    (0..FACTORY_DOMAINS).map(move |i| base.wrapping_add(i))
}

/// [`FACTORY_DOMAINS`] domains from `core::fuzz::build_domain` at the
/// default fuzz configuration, each verified with its own configuration.
fn factory(seed: u64) -> R<Vec<Job>> {
    let fc = FuzzConfig::default();
    factory_seeds(seed)
        .map(|s| {
            Ok(Job {
                name: format!("domain-{s}"),
                spec: build_domain(s, &fc).map_err(|e| format!("domain {s}: {e}"))?,
                config: fc.verify_config(),
                expect: Expect::AllButWitness,
            })
        })
        .collect()
}

/// Runs `verify` on one job, turning an error or a panic into `None`.
pub fn run_verify(job: &Job, threads: usize) -> Option<VerificationOutcome> {
    match catch_unwind(AssertUnwindSafe(|| {
        verify_with_threads(&job.spec, &job.config, threads)
    })) {
        Ok(Ok(outcome)) => Some(outcome),
        Ok(Err(e)) => {
            eprintln!("perfbench: {}: verify error: {e}", job.name);
            None
        }
        Err(_) => {
            eprintln!("perfbench: {}: verify panicked", job.name);
            None
        }
    }
}

/// Whether `outcome` is the verdict `expect` demands.
pub fn verdict_holds(expect: Expect, o: &VerificationOutcome) -> bool {
    let complete = o.stages.iter().all(|s| s.exhausted.is_none());
    match expect {
        Expect::Correct => complete && o.is_correct(),
        Expect::CorrectWithPdl { universe } => {
            complete
                && o.is_correct()
                && o.dynamic.skipped.is_none()
                && o.dynamic.universe_states == universe
        }
        Expect::AllButWitness => {
            complete
                && o.grammar_ok
                && o.report.refine12.is_correct()
                && o.report.equations.is_correct()
                && o.cross_mismatch.is_none()
                && o.dynamic.is_correct()
        }
    }
}

/// The million-state capstone: a compressed 64-block ring, and an inner
/// predicate whose modal verdicts are known per block.
///
/// Blocks fall into three classes, rotated by the seed: class 0 marks one
/// seed-chosen state of the block, class 1 marks every state, class 2
/// none. Every closure row is its block, so `[ring*]inner` holds exactly
/// on class-1 blocks and `<ring*>inner` on class-0 and class-1 blocks.
pub struct Capstone {
    base: Rel,
    inner: Vec<bool>,
    rotate: usize,
}

/// What one capstone pass produced.
pub struct CapstoneRun {
    pub closed: Option<Rel>,
    pub boxed: Option<Vec<bool>>,
    pub diamond: Option<Vec<bool>>,
}

impl Capstone {
    pub fn new(seed: u64) -> Capstone {
        let rotate = (seed % 3) as usize;
        let mark = ((seed / 3) % CAPSTONE_BLOCK as u64) as usize;
        let mut base = Rel::with_backend(CAPSTONE_STATES, RelBackend::Compressed);
        let mut inner = Vec::with_capacity(CAPSTONE_STATES);
        for i in 0..CAPSTONE_STATES {
            let block = i - i % CAPSTONE_BLOCK;
            base.set(i, block + (i + 1) % CAPSTONE_BLOCK);
            inner.push(match Self::class(rotate, i) {
                0 => i % CAPSTONE_BLOCK == mark,
                1 => true,
                _ => false,
            });
        }
        Capstone {
            base,
            inner,
            rotate,
        }
    }

    fn class(rotate: usize, state: usize) -> usize {
        (state / CAPSTONE_BLOCK + rotate) % 3
    }

    /// The budgeted closure at `threads` workers.
    pub fn closure(&self, threads: usize) -> Option<Rel> {
        let budget = Budget::unlimited().with_max_rel_entries(CAPSTONE_BUDGET_BYTES);
        self.base.closure_governed(&budget, threads).ok()
    }

    /// The lazy `[ring*]inner` and `<ring*>inner` sweeps, sharing one memo.
    pub fn lazy_sweeps(&self) -> (Option<Vec<bool>>, Option<Vec<bool>>) {
        let budget = Budget::unlimited();
        let mut lazy = LazyClosure::new(&self.base);
        let boxed = lazy.box_star_states(&self.inner, &budget).ok();
        let diamond = lazy.diamond_star_states(&self.inner, &budget).ok();
        (boxed, diamond)
    }

    /// Whether a pass reached the known answers: `2²⁰·64` closure pairs,
    /// relation bytes under the budget, and lazy sweeps that agree with
    /// both the materialised closure and the block classes.
    pub fn holds(&self, run: &CapstoneRun) -> bool {
        let (Some(closed), Some(boxed), Some(diamond)) = (&run.closed, &run.boxed, &run.diamond)
        else {
            return false;
        };
        closed.count_ones() == CAPSTONE_STATES * CAPSTONE_BLOCK
            && closed.mem_bytes() < CAPSTONE_BUDGET_BYTES
            && *boxed == closed.box_states(&self.inner)
            && *diamond == closed.diamond_states(&self.inner)
            && (0..CAPSTONE_STATES).all(|i| {
                let class = Self::class(self.rotate, i);
                boxed[i] == (class == 1) && diamond[i] == (class != 2)
            })
    }
}
