//! The traced run: each `verify` job is re-run as its per-obligation public
//! calls, in the order the serial battery makes them, and each call is
//! timed from outside. The same job is then verified whole at one worker
//! (the reference total the layers must add up to) and at the benchmark's
//! worker count.

use std::time::Instant;

use eclectic_refine::{
    check_dynamic_budget, check_equations_budget, check_valid_reachable, cross_check_budget,
    obligation_axioms, obligation_completeness, obligation_exploration, obligation_termination,
    random_ops, InducedAlgebra,
};
use eclectic_rpr::wgrammar;
use eclectic_spec::{TriLevelSpec, VerificationOutcome};

use crate::work::{run_verify, verdict_holds, Job, R};

/// Milliseconds since `t`.
fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Wall time of each layer, in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerMs {
    pub grammar: f64,
    pub termination: f64,
    pub completeness: f64,
    pub exploration: f64,
    pub axioms: f64,
    pub witness: f64,
    pub equations: f64,
    pub dynamic: f64,
    pub cross: f64,
}

impl LayerMs {
    pub fn total(&self) -> f64 {
        self.grammar
            + self.termination
            + self.completeness
            + self.exploration
            + self.axioms
            + self.witness
            + self.equations
            + self.dynamic
            + self.cross
    }

    pub fn add(&mut self, o: &LayerMs) {
        self.grammar += o.grammar;
        self.termination += o.termination;
        self.completeness += o.completeness;
        self.exploration += o.exploration;
        self.axioms += o.axioms;
        self.witness += o.witness;
        self.equations += o.equations;
        self.dynamic += o.dynamic;
        self.cross += o.cross;
    }
}

/// Work done by each layer, as counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Ground query applications of the completeness sweep.
    pub evaluated: usize,
    /// States of the explored universe `M(T2)`.
    pub states: usize,
    /// Jobs whose exploration hit a limit.
    pub truncated: usize,
    /// Candidate states enumerated by the witness step.
    pub candidates: usize,
    /// Ground equation instances checked in the induced algebra.
    pub instances: usize,
    /// States of the PDL universe.
    pub universe_states: usize,
    /// (procedure, arguments) applications checked by the PDL step.
    pub applications: usize,
    /// Denotations computed from scratch.
    pub computed: usize,
    /// Denotation-cache hits.
    pub hits: usize,
    /// Query instances compared by the cross check.
    pub comparisons: usize,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.evaluated += o.evaluated;
        self.states += o.states;
        self.truncated += o.truncated;
        self.candidates += o.candidates;
        self.instances += o.instances;
        self.universe_states += o.universe_states;
        self.applications += o.applications;
        self.computed += o.computed;
        self.hits += o.hits;
        self.comparisons += o.comparisons;
    }

    /// The counts a whole `verify` run reports, for the attribution check.
    fn of(o: &VerificationOutcome) -> (usize, usize, usize, usize) {
        (
            o.report.refine12.completeness.evaluated,
            o.report.refine12.exploration.witnesses.len(),
            o.report.equations.instances,
            o.dynamic.checked,
        )
    }

    fn attributed(&self) -> (usize, usize, usize, usize) {
        (
            self.evaluated,
            self.states,
            self.instances,
            self.applications,
        )
    }
}

/// The seed of `verify`'s cross-check trace generator.
const CROSS_SEED: u64 = 0x5eed_1234_abcd_0001;

/// The name of the specification's initial update constant (the update
/// that takes no state argument).
fn initial_update(spec: &TriLevelSpec) -> R<String> {
    let alg = spec.functions.signature();
    for u in alg.updates() {
        if !alg.update_takes_state(u).map_err(|e| e.to_string())? {
            return Ok(alg.logic().func(u).name.clone());
        }
    }
    Err("no initial state constant".into())
}

/// Runs one job as its per-obligation calls at one worker, timing each.
fn layers(job: &Job) -> R<(LayerMs, Counts)> {
    let (spec, cfg) = (&job.spec, &job.config);
    let budget = cfg.budget();
    let e = |e: eclectic_refine::RefineError| e.to_string();
    let mut t = LayerMs::default();
    let mut c = Counts::default();

    let t0 = Instant::now();
    std::hint::black_box(wgrammar::check_schema(&spec.representation).is_ok());
    t.grammar = ms(t0);

    let t0 = Instant::now();
    obligation_termination(&spec.functions).map_err(e)?;
    t.termination = ms(t0);

    let t0 = Instant::now();
    let completeness =
        obligation_completeness(&spec.functions, cfg.refine12.completeness_depth, &budget, 1)
            .map_err(e)?;
    t.completeness = ms(t0);
    c.evaluated = completeness.evaluated;

    let t0 = Instant::now();
    let exploration = obligation_exploration(
        &spec.functions,
        &spec.interp_i,
        spec.info_signature(),
        &spec.info_domains,
        cfg.refine12.limits,
        &budget,
        1,
    )
    .map_err(e)?;
    t.exploration = ms(t0);
    c.states = exploration.witnesses.len();
    c.truncated = usize::from(exploration.truncated);

    let t0 = Instant::now();
    obligation_axioms(
        &spec.information,
        &spec.functions,
        cfg.refine12.policy,
        &exploration,
    )
    .map_err(e)?;
    t.axioms = ms(t0);

    // Obligation (c) is skipped over a budget-truncated universe.
    if exploration.exhausted.is_none() {
        let t0 = Instant::now();
        let witness =
            check_valid_reachable(&spec.information, &exploration, cfg.candidate_cap).map_err(e)?;
        t.witness = ms(t0);
        c.candidates = witness.candidates;
    }

    let t0 = Instant::now();
    let mut induced = InducedAlgebra::new(
        &spec.functions,
        &spec.representation,
        &spec.interp_k,
        spec.empty_state(),
    )
    .map_err(e)?;
    let equations =
        check_equations_budget(&mut induced, cfg.eq_depth, cfg.eq_max_states, 20, &budget)
            .map_err(e)?;
    t.equations = ms(t0);
    c.instances = equations.instances;

    let t0 = Instant::now();
    let dynamic = check_dynamic_budget(
        &spec.representation,
        &spec.empty_state(),
        cfg.pdl_universe_cap,
        &budget,
        1,
    )
    .map_err(e)?;
    t.dynamic = ms(t0);
    c.universe_states = dynamic.universe_states;
    c.applications = dynamic.checked;
    c.computed = dynamic.cache_stats.computed;
    c.hits = dynamic.cache_stats.hits;

    // The cross check replays `verify`'s own trace generator (xorshift64*
    // from a fixed seed) so it compares the same traces.
    let t0 = Instant::now();
    let initial = initial_update(spec)?;
    let mut rng = CROSS_SEED;
    let mut choose = move |n: usize| {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        (rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
    };
    for _ in 0..cfg.random_traces {
        let ops = random_ops(
            &spec.functions,
            &induced,
            &initial,
            cfg.trace_len,
            &mut choose,
        )
        .map_err(e)?;
        let (mismatch, stats, exhausted) =
            cross_check_budget(&spec.functions, &mut induced, &ops, &budget, 1).map_err(e)?;
        c.comparisons += stats.comparisons;
        if mismatch.is_some() || exhausted.is_some() {
            break;
        }
    }
    t.cross = ms(t0);

    Ok((t, c))
}

/// One traced pass over a workload's jobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct TracedPass {
    pub layers: LayerMs,
    pub counts: Counts,
    /// `verify_with_threads(spec, cfg, 1)`, summed over the jobs.
    pub serial_ms: f64,
    /// `verify_with_threads(spec, cfg, workers)`, summed over the jobs.
    pub parallel_ms: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs every job layer by layer and whole at one worker (in either
/// order, so that alternating passes cancel any warm-up advantage), then
/// whole at `workers` workers. A job fails if any call errs or panics, if
/// either whole run misses its known verdict, or if the layer counts differ
/// from what the whole serial run reports.
pub fn pass(jobs: &[Job], workers: usize, serial_first: bool) -> TracedPass {
    let mut p = TracedPass::default();
    let traced = |job| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| layers(job)));
    for job in jobs {
        p.attempted += 1;
        let early = (!serial_first).then(|| traced(job));
        let t0 = Instant::now();
        let serial = run_verify(job, 1);
        p.serial_ms += ms(t0);
        let traced = early.unwrap_or_else(|| traced(job));
        let t0 = Instant::now();
        let parallel = run_verify(job, workers);
        p.parallel_ms += ms(t0);

        let ok = match (traced, &serial, &parallel) {
            (Ok(Ok((t, c))), Some(s), Some(par)) => {
                p.layers.add(&t);
                p.counts.add(&c);
                let attributed = c.attributed() == Counts::of(s);
                if !attributed {
                    eprintln!(
                        "perfbench: {}: traced counts {:?} differ from verify's {:?}",
                        job.name,
                        c.attributed(),
                        Counts::of(s)
                    );
                }
                attributed
                    && Counts::of(par) == Counts::of(s)
                    && verdict_holds(job.expect, s)
                    && verdict_holds(job.expect, par)
            }
            (Ok(Err(e)), ..) => {
                eprintln!("perfbench: {}: traced call failed: {e}", job.name);
                false
            }
            _ => false,
        };
        p.failed += u64::from(!ok);
    }
    p
}

/// Attribution is complete enough when the layer calls account for at
/// least this share of the whole serial run.
pub const MIN_COVERAGE: f64 = 0.95;

/// The share of whole serial `verify` time that the layer calls account
/// for: the mean over passes of Σ layer ms ÷ serial verify ms, with its
/// standard error.
pub fn coverage<'a>(passes: impl Iterator<Item = &'a TracedPass>) -> (f64, f64) {
    let ratios: Vec<f64> = passes.map(|p| p.layers.total() / p.serial_ms).collect();
    let n = ratios.len() as f64;
    let mean = ratios.iter().sum::<f64>() / n;
    let var = ratios.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
    (mean, (var / n).sqrt())
}

/// Whether attribution falls short: coverage below [`MIN_COVERAGE`] by
/// more than twice its standard error. The layers and the whole run are
/// timed in separate windows, and on a shared host one window can run
/// 10–20% slower than the next; a job that is one long call (pdl-bank)
/// gives only a few such pairs per run, so the shortfall must exceed the
/// run's own measurement error. Where a pass holds many short jobs the
/// error is a fraction of a percent and this is the plain threshold.
pub fn short_of_coverage(coverage: f64, std_err: f64) -> bool {
    coverage + 2.0 * std_err < MIN_COVERAGE
}
