//! One function per table/figure of the paper's evaluation section.
//!
//! Every function prints the same rows/series the paper reports. Sizes
//! default to `scale ×` the paper's cardinalities (`--full` sets
//! `scale = 1.0`); distance parameters (Figure 10's ε) are rescaled by
//! `sqrt(1/scale)` so that the *shape* of each curve is preserved — point
//! density scales linearly with `n`, so characteristic distances scale
//! with `1/sqrt(n)`.

use crate::harness::{run_phase, run_rcj, secs, Measured, Table, Workload, DEFAULT_BUFFER_FRAC};
use ringjoin_core::planner::{cost_units, CalibrationSample, DatasetSummary, JoinCostModel};
use ringjoin_core::{
    brute_candidates, pair_keys, rcj_join, Executor, RcjAlgorithm, RcjIndex, RcjOptions,
};
use ringjoin_datagen::{gaussian_clusters, gnis_like, uniform, GnisDataset, PAPER_SIGMA};
use ringjoin_rtree::Item;
use ringjoin_spatialjoin::{epsilon_join, k_closest_pairs, knn_join, precision_recall};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Global experiment configuration.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Fraction of the paper's dataset cardinalities to generate.
    pub scale: f64,
    /// Worker threads for the RCJ runs (0 = the `RINGJOIN_THREADS`-aware
    /// default, 1 = sequential). The `scaling` experiment sweeps its own
    /// thread counts and ignores this.
    pub threads: usize,
    /// Where the `scaling` experiment writes its JSON. `None` falls back
    /// to the `RINGJOIN_SCALING_OUT` environment variable, then to
    /// `BENCH_scaling.json` in the working directory. A field (not a
    /// `set_var`) so tests can redirect it without touching the process
    /// environment from multiple threads.
    pub scaling_out: Option<String>,
    /// Where the `serving` experiment writes its JSON; same fallback
    /// scheme via `RINGJOIN_SERVING_OUT`, then `BENCH_serving.json`.
    pub serving_out: Option<String>,
    /// Run the `scaling` sweep disk-native: every workload's page space
    /// is spilled to an on-disk page file before measurement, so buffer
    /// misses are real file reads and `prefetch_hits` is exercised.
    /// The paper's default 1% buffer applies either way; the dedicated
    /// out-of-core phase (dataset ≈ 4× budget) runs regardless.
    pub on_disk: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        // 1/8 of the paper's sizes: laptop-friendly (seconds per figure)
        // while keeping every curve's shape.
        ExpConfig {
            scale: 0.125,
            threads: 0,
            scaling_out: None,
            serving_out: None,
            on_disk: false,
        }
    }
}

impl ExpConfig {
    fn n(&self, full: usize) -> usize {
        ((full as f64 * self.scale).round() as usize).max(10)
    }

    /// Distance rescaling factor: characteristic distances grow as
    /// density shrinks.
    fn dist_factor(&self) -> f64 {
        (1.0 / self.scale).sqrt()
    }

    /// RCJ options for one algorithm under this configuration's executor.
    fn rcj_opts(&self, algorithm: RcjAlgorithm) -> RcjOptions {
        let executor = if self.threads == 0 {
            Executor::default()
        } else {
            Executor::threads(self.threads)
        };
        RcjOptions::algorithm(algorithm).with_executor(executor)
    }
}

/// The paper's join combinations (Table 3): (name, Q dataset, P dataset).
pub const COMBINATIONS: [(&str, GnisDataset, GnisDataset); 4] = [
    ("SP", GnisDataset::Schools, GnisDataset::PopulatedPlaces),
    ("SP'", GnisDataset::PopulatedPlaces, GnisDataset::Schools),
    ("LP", GnisDataset::Locales, GnisDataset::PopulatedPlaces),
    ("LP'", GnisDataset::PopulatedPlaces, GnisDataset::Locales),
];

const ALGOS: [RcjAlgorithm; 3] = [RcjAlgorithm::Inj, RcjAlgorithm::Bij, RcjAlgorithm::Obj];

fn combo_workload(cfg: &ExpConfig, q: GnisDataset, p: GnisDataset) -> Workload {
    let p_items = gnis_like(p, cfg.n(p.full_cardinality()));
    let q_items = gnis_like(q, cfg.n(q.full_cardinality()));
    Workload::build(p_items, q_items, DEFAULT_BUFFER_FRAC)
}

fn cost_columns(m: &Measured) -> Vec<String> {
    vec![
        secs(m.cpu_secs),
        secs(m.io_secs),
        secs(m.total_secs()),
        m.io.read_faults.to_string(),
        m.io.logical_reads.to_string(),
    ]
}

const COST_HEADER: [&str; 5] = ["cpu(s)", "io(s)", "total(s)", "faults", "node_acc"];

/// Table 2: the (stand-in) real datasets.
pub fn table2(cfg: &ExpConfig) -> String {
    let mut out = format!(
        "== Table 2: real dataset stand-ins (scale {}) ==\n",
        cfg.scale
    );
    let mut t = Table::new(&["ID", "Description", "paper N", "generated N"]);
    for (ds, desc) in [
        (GnisDataset::PopulatedPlaces, "Populated Places (GNIS-like)"),
        (GnisDataset::Schools, "Schools (GNIS-like)"),
        (GnisDataset::Locales, "Locales (GNIS-like)"),
    ] {
        t.row(vec![
            ds.short_name().into(),
            desc.into(),
            ds.full_cardinality().to_string(),
            cfg.n(ds.full_cardinality()).to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Table 4: number of candidate pairs per algorithm, SP and LP.
pub fn table4(cfg: &ExpConfig) -> String {
    let mut out = format!(
        "== Table 4: number of candidate pairs, real-like data (scale {}) ==\n",
        cfg.scale
    );
    let mut t = Table::new(&["Algorithm", "SP", "LP"]);
    let mut columns: Vec<Vec<String>> = Vec::new();
    for (_, q, p) in [&COMBINATIONS[0], &COMBINATIONS[2]].map(|c| *c) {
        let w = combo_workload(cfg, q, p);
        let brute = brute_candidates(w.tp.len(), w.tq.len());
        let mut col = vec![format!("{:.2E}", brute as f64)];
        let mut result = 0u64;
        for algo in ALGOS {
            let m = run_rcj(&w, &cfg.rcj_opts(algo));
            col.push(m.stats.candidate_pairs.to_string());
            result = m.stats.result_pairs;
        }
        col.push(result.to_string());
        columns.push(col);
    }
    for (i, name) in ["BRUTE", "INJ", "BIJ", "OBJ", "RCJ Results"]
        .iter()
        .enumerate()
    {
        t.row(vec![
            name.to_string(),
            columns[0][i].clone(),
            columns[1][i].clone(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// RCJ reference result keys for a workload (computed with OBJ).
fn rcj_reference(w: &Workload) -> HashSet<(u64, u64)> {
    let out = rcj_join(&w.tq, &w.tp, &RcjOptions::default());
    pair_keys(&out.pairs).into_iter().collect()
}

/// Figure 10: resemblance of the ε-range join vs ε, for SP and LP.
pub fn fig10(cfg: &ExpConfig) -> String {
    let mut out = format!(
        "== Figure 10: precision/recall of the eps-range join vs eps (scale {}) ==\n",
        cfg.scale
    );
    for (name, q, p) in [COMBINATIONS[0], COMBINATIONS[2]] {
        let w = combo_workload(cfg, q, p);
        let reference = rcj_reference(&w);
        let mut t = Table::new(&["eps", "pairs", "precision(%)", "recall(%)"]);
        for step in 1..=10 {
            let eps = step as f64 * cfg.dist_factor();
            let pairs = epsilon_join(&w.tp, &w.tq, eps);
            let keys: Vec<(u64, u64)> = pairs.iter().map(|(a, b)| (a.id, b.id)).collect();
            let qy = precision_recall(&keys, &reference);
            t.row(vec![
                format!("{eps:.1}"),
                keys.len().to_string(),
                format!("{:.1}", qy.precision),
                format!("{:.1}", qy.recall),
            ]);
        }
        let _ = writeln!(
            out,
            "-- combination {name} (|RCJ| = {}) --",
            reference.len()
        );
        out.push_str(&t.render());
    }
    out
}

/// Figure 11: resemblance of the k-closest-pairs join vs k.
pub fn fig11(cfg: &ExpConfig) -> String {
    let mut out = format!(
        "== Figure 11: precision/recall of k-closest-pairs vs k (scale {}) ==\n",
        cfg.scale
    );
    for (name, q, p) in [COMBINATIONS[0], COMBINATIONS[2]] {
        let w = combo_workload(cfg, q, p);
        let reference = rcj_reference(&w);
        let mut t = Table::new(&["k", "precision(%)", "recall(%)"]);
        // Sweep k up to ~1.4x the RCJ result size, mirroring the paper's
        // x-axis (which extends past |RCJ|).
        let base = reference.len().max(10);
        for frac in [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4] {
            let k = (base as f64 * frac) as usize;
            let pairs = k_closest_pairs(&w.tp, &w.tq, k);
            let keys: Vec<(u64, u64)> = pairs.iter().map(|(a, b, _)| (a.id, b.id)).collect();
            let qy = precision_recall(&keys, &reference);
            t.row(vec![
                k.to_string(),
                format!("{:.1}", qy.precision),
                format!("{:.1}", qy.recall),
            ]);
        }
        let _ = writeln!(
            out,
            "-- combination {name} (|RCJ| = {}) --",
            reference.len()
        );
        out.push_str(&t.render());
    }
    out
}

/// Figure 12: resemblance of the k-nearest-neighbour join vs k.
pub fn fig12(cfg: &ExpConfig) -> String {
    let mut out = format!(
        "== Figure 12: precision/recall of the kNN join vs k (scale {}) ==\n",
        cfg.scale
    );
    for (name, q, p) in [COMBINATIONS[0], COMBINATIONS[2]] {
        let w = combo_workload(cfg, q, p);
        let reference = rcj_reference(&w);
        let mut t = Table::new(&["k", "pairs", "precision(%)", "recall(%)"]);
        for k in 1..=10usize {
            let pairs = knn_join(&w.tp, &w.tq, k);
            let keys: Vec<(u64, u64)> = pairs.iter().map(|(a, b)| (a.id, b.id)).collect();
            let qy = precision_recall(&keys, &reference);
            t.row(vec![
                k.to_string(),
                keys.len().to_string(),
                format!("{:.1}", qy.precision),
                format!("{:.1}", qy.recall),
            ]);
        }
        let _ = writeln!(
            out,
            "-- combination {name} (|RCJ| = {}) --",
            reference.len()
        );
        out.push_str(&t.render());
    }
    out
}

/// Figure 13: the effect of the join combination (real-like data).
pub fn fig13(cfg: &ExpConfig) -> String {
    let mut out = format!(
        "== Figure 13: the effect of join combination (scale {}) ==\n",
        cfg.scale
    );
    let mut header = vec!["combination", "algo"];
    header.extend(COST_HEADER);
    header.push("candidates");
    header.push("results");
    let mut t = Table::new(&header);
    for (name, q, p) in COMBINATIONS {
        let w = combo_workload(cfg, q, p);
        for algo in ALGOS {
            let m = run_rcj(&w, &cfg.rcj_opts(algo));
            let mut row = vec![name.to_string(), algo.name().to_string()];
            row.extend(cost_columns(&m));
            row.push(m.stats.candidate_pairs.to_string());
            row.push(m.stats.result_pairs.to_string());
            t.row(row);
        }
    }
    out.push_str(&t.render());
    out
}

/// Figure 14: the cost of the verification step (UI data, |P|=|Q|=200K).
pub fn fig14(cfg: &ExpConfig) -> String {
    let n = cfg.n(200_000);
    let mut out =
        format!("== Figure 14: cost with vs without verification, |P|=|Q|={n}, UI data ==\n");
    let w = Workload::build(uniform(n, 101), uniform(n, 202), DEFAULT_BUFFER_FRAC);
    let mut header = vec!["algo", "verification"];
    header.extend(COST_HEADER);
    let mut t = Table::new(&header);
    for algo in ALGOS {
        for verification in [true, false] {
            let opts = RcjOptions {
                skip_verification: !verification,
                ..cfg.rcj_opts(algo)
            };
            let m = run_rcj(&w, &opts);
            let mut row = vec![
                algo.name().to_string(),
                if verification { "with" } else { "without" }.to_string(),
            ];
            row.extend(cost_columns(&m));
            t.row(row);
        }
    }
    out.push_str(&t.render());
    out
}

/// Figure 15: the effect of the buffer size (UI data).
pub fn fig15(cfg: &ExpConfig) -> String {
    let n = cfg.n(200_000);
    let mut out = format!("== Figure 15: the effect of buffer size, |P|=|Q|={n}, UI data ==\n");
    let mut w = Workload::build(uniform(n, 101), uniform(n, 202), DEFAULT_BUFFER_FRAC);
    let mut header = vec!["buffer(%)", "algo"];
    header.extend(COST_HEADER);
    let mut t = Table::new(&header);
    for frac_pct in [0.2, 0.5, 1.0, 2.0, 5.0] {
        w.set_buffer_frac(frac_pct / 100.0);
        for algo in ALGOS {
            let m = run_rcj(&w, &cfg.rcj_opts(algo));
            let mut row = vec![format!("{frac_pct}"), algo.name().to_string()];
            row.extend(cost_columns(&m));
            t.row(row);
        }
    }
    out.push_str(&t.render());
    out
}

/// Figure 16: scalability with the data size n (UI data).
pub fn fig16(cfg: &ExpConfig) -> String {
    let mut out = format!(
        "== Figure 16: the effect of data size n, |P|=|Q|=n, UI data (scale {}) ==\n",
        cfg.scale
    );
    let mut header = vec!["n", "algo"];
    header.extend(COST_HEADER);
    header.push("results");
    let mut t = Table::new(&header);
    for full_n in [50_000usize, 100_000, 200_000, 400_000, 800_000] {
        let n = cfg.n(full_n);
        let w = Workload::build(uniform(n, 7), uniform(n, 8), DEFAULT_BUFFER_FRAC);
        for algo in ALGOS {
            let m = run_rcj(&w, &cfg.rcj_opts(algo));
            let mut row = vec![n.to_string(), algo.name().to_string()];
            row.extend(cost_columns(&m));
            row.push(m.stats.result_pairs.to_string());
            t.row(row);
        }
    }
    out.push_str(&t.render());
    out
}

/// Figure 17: the effect of the cardinality ratio |P| : |Q|.
pub fn fig17(cfg: &ExpConfig) -> String {
    let total = cfg.n(400_000);
    let mut out =
        format!("== Figure 17: the effect of cardinality ratio, |P|+|Q|={total}, UI data ==\n");
    let mut header = vec!["|P|:|Q|", "algo"];
    header.extend(COST_HEADER);
    header.push("results");
    let mut t = Table::new(&header);
    for (label, pw, qw) in [
        ("1:4", 1, 4),
        ("1:2", 1, 2),
        ("1:1", 1, 1),
        ("2:1", 2, 1),
        ("4:1", 4, 1),
    ] {
        let np = total * pw / (pw + qw);
        let nq = total - np;
        let w = Workload::build(uniform(np, 31), uniform(nq, 37), DEFAULT_BUFFER_FRAC);
        for algo in ALGOS {
            let m = run_rcj(&w, &cfg.rcj_opts(algo));
            let mut row = vec![label.to_string(), algo.name().to_string()];
            row.extend(cost_columns(&m));
            row.push(m.stats.result_pairs.to_string());
            t.row(row);
        }
    }
    out.push_str(&t.render());
    out
}

/// Figure 18: the effect of the number of clusters w (Gaussian data).
pub fn fig18(cfg: &ExpConfig) -> String {
    let n = cfg.n(200_000);
    let mut out =
        format!("== Figure 18: the effect of cluster count w, |P|=|Q|={n}, Gaussian data ==\n");
    let mut header = vec!["w", "algo"];
    header.extend(COST_HEADER);
    header.push("results");
    let mut t = Table::new(&header);
    for wclusters in [2usize, 5, 10, 15, 20] {
        let w = Workload::build(
            gaussian_clusters(n, wclusters, PAPER_SIGMA, 51),
            gaussian_clusters(n, wclusters, PAPER_SIGMA, 52),
            DEFAULT_BUFFER_FRAC,
        );
        for algo in ALGOS {
            let m = run_rcj(&w, &cfg.rcj_opts(algo));
            let mut row = vec![wclusters.to_string(), algo.name().to_string()];
            row.extend(cost_columns(&m));
            row.push(m.stats.result_pairs.to_string());
            t.row(row);
        }
    }
    out.push_str(&t.render());
    out
}

/// Extra (not a paper figure): baseline join costs on the same workload,
/// for context in EXPERIMENTS.md.
pub fn baselines(cfg: &ExpConfig) -> String {
    let n = cfg.n(100_000);
    let mut out = format!("== Baseline join costs, |P|=|Q|={n}, UI data ==\n");
    let w = Workload::build(uniform(n, 61), uniform(n, 67), DEFAULT_BUFFER_FRAC);
    let mut header = vec!["join", "pairs"];
    header.extend(COST_HEADER);
    let mut t = Table::new(&header);
    let eps = 5.0 * cfg.dist_factor();
    let (pairs, m) = run_phase(&w, || epsilon_join(&w.tp, &w.tq, eps));
    let mut row = vec![format!("eps-join(eps={eps:.1})"), pairs.len().to_string()];
    row.extend(cost_columns(&m));
    t.row(row);
    let k = n / 10;
    let (pairs, m) = run_phase(&w, || k_closest_pairs(&w.tp, &w.tq, k));
    let mut row = vec![format!("{k}-closest-pairs"), pairs.len().to_string()];
    row.extend(cost_columns(&m));
    t.row(row);
    let (pairs, m) = run_phase(&w, || knn_join(&w.tp, &w.tq, 1));
    let mut row = vec!["1NN-join".to_string(), pairs.len().to_string()];
    row.extend(cost_columns(&m));
    t.row(row);
    let m = run_rcj(&w, &cfg.rcj_opts(RcjAlgorithm::Obj));
    let mut row = vec!["RCJ (OBJ)".to_string(), m.stats.result_pairs.to_string()];
    row.extend(cost_columns(&m));
    t.row(row);
    out.push_str(&t.render());
    out
}

/// Extension experiment (paper future-work item 1): the planner's
/// calibrated analytical cost model, validated against measurement.
///
/// The model itself lives in `ringjoin_core::planner` (it is what
/// resolves `RcjAlgorithm::Auto` and prices `explain` plans); this
/// experiment is its measurement harness. The local operations of the
/// join are density-invariant on uniform data — the filter's unpruned
/// region shrinks as `1/sqrt(n)` exactly as fast as the data densifies —
/// so per-phase node reads are linear in the number of *outer work
/// units*: points of `Q` for INJ, leaves of `T_Q` for BIJ/OBJ. The
/// experiment calibrates a [`JoinCostModel`] at a small size, predicts
/// filter/verify node reads at 2x and 4x, and prints the relative
/// errors plus the algorithm `Auto` would pick at each size.
pub fn ext_costmodel(cfg: &ExpConfig) -> String {
    let n0 = cfg.n(100_000);
    let mut out = format!(
        "== Extension: planner cost model (core::planner, calibrated at n={n0}, UI data) ==\n"
    );
    // One measured run per algorithm at size n: the workload summary the
    // planner would see, plus per-phase node reads.
    let measure = |n: usize| -> (DatasetSummary, Vec<CalibrationSample>) {
        let w = Workload::build(uniform(n, 7), uniform(n, 8), DEFAULT_BUFFER_FRAC);
        let summary = w.tq.summary();
        let samples = ALGOS
            .map(|algo| {
                let m = run_rcj(&w, &cfg.rcj_opts(algo));
                CalibrationSample {
                    algorithm: algo,
                    units: cost_units(algo, &summary).0,
                    filter_reads: m.stats.filter_node_reads,
                    verify_reads: m.stats.verify_node_visits,
                }
            })
            .to_vec();
        (summary, samples)
    };

    let (summary0, samples0) = measure(n0);
    let model = JoinCostModel::calibrate(&samples0);
    let mut t = Table::new(&[
        "n",
        "algo",
        "units",
        "pred filter",
        "pred verify",
        "measured f",
        "measured v",
        "err(%)",
    ]);
    let mut auto_choices = vec![format!("n={n0}: {}", model.choose(&summary0).name())];
    for factor in [2usize, 4] {
        let n = n0 * factor;
        let (summary, samples) = measure(n);
        for s in samples {
            let e = model.estimate(s.algorithm, &summary);
            let measured = (s.filter_reads + s.verify_reads) as f64;
            let err = 100.0 * (e.total_reads() - measured).abs() / measured.max(1.0);
            t.row(vec![
                n.to_string(),
                s.algorithm.name().to_string(),
                format!("{} {}", e.units, e.unit),
                format!("{:.0}", e.filter_reads),
                format!("{:.0}", e.verify_reads),
                s.filter_reads.to_string(),
                s.verify_reads.to_string(),
                format!("{err:.1}"),
            ]);
        }
        auto_choices.push(format!("n={n}: {}", model.choose(&summary).name()));
    }
    out.push_str(&t.render());
    out.push_str(
        "model: reads(INJ) = (c_f + c_v) * |Q|;  reads(BIJ/OBJ) = (c_f + c_v) * leaves(T_Q)\n",
    );
    let _ = writeln!(out, "Auto would choose: {}", auto_choices.join(", "));
    out
}

/// Thread counts swept by the [`scaling`] experiment (1 runs on the
/// sequential executor and is the baseline).
pub const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// The skew workloads appended to the [`scaling`] sweep: clustered
/// outer datasets are where equal-count contiguous chunking loses and
/// the work-stealing scheduler earns its keep. `SKEW-G` is the paper's
/// Gaussian generator (Figure 18's 10-cluster shape); `SKEW-C` packs
/// the same mass into 3 tight clusters (quarter sigma).
pub const SCALING_SKEW: [&str; 2] = ["SKEW-G", "SKEW-C"];

fn skew_workload(cfg: &ExpConfig, name: &str) -> Workload {
    let nq = cfg.n(GnisDataset::Schools.full_cardinality());
    let np = cfg.n(GnisDataset::PopulatedPlaces.full_cardinality());
    let q_items = match name {
        "SKEW-G" => gaussian_clusters(nq, 10, PAPER_SIGMA, 71),
        "SKEW-C" => gaussian_clusters(nq, 3, PAPER_SIGMA / 4.0, 73),
        other => panic!("unknown skew workload {other:?}"),
    };
    Workload::build(
        gnis_like(GnisDataset::PopulatedPlaces, np),
        q_items,
        DEFAULT_BUFFER_FRAC,
    )
}

/// Thread counts exercised by the out-of-core phase of [`scaling`]
/// (one sequential reader, and four work-stealing workers).
pub const OOC_THREADS: [usize; 2] = [1, 4];

/// Update rounds run by the live-update phase of [`scaling`]: fresh
/// inserts, then moves (upserts), then deletes, then a mixed batch.
pub const UPDATE_ROUNDS: usize = 4;

/// Scaling experiment (first entry of the perf trajectory, not a paper
/// figure): OBJ at 1/2/4/8 worker threads over the Figure 13 workload
/// plus the [`SCALING_SKEW`] clustered variants, then an out-of-core
/// phase — the SP workload spilled to an on-disk page file with the
/// buffer pinned to a quarter of its page count, so the run *must*
/// keep faulting pages in from the file (`SP-OOC` rows, at
/// [`OOC_THREADS`]) — and finally a live-update phase: [`UPDATE_ROUNDS`]
/// seeded insert/upsert/delete batches interleaved with joins through
/// the engine's epoch-versioned update path, each round's epoch, I/O
/// accounting and (at the end) replayed-history byte-identity asserted
/// and recorded in the JSON's `updates` section.
///
/// Wall-clock seconds are measured per combination and compared against
/// the sequential baseline; the determinism guarantee is asserted on
/// every run (`pair_keys` must match the baseline exactly, including
/// the out-of-core rows). Raw numbers — `read_faults`, `read_hits`,
/// `prefetch_hits` and the derived hit rate of the shared buffer pool —
/// are additionally written as JSON to `BENCH_scaling.json` (override
/// the path with `RINGJOIN_SCALING_OUT`) so regressions are visible in
/// version control. With [`ExpConfig::on_disk`] the *whole* sweep runs
/// disk-native (spilled page files, same 1% buffer), which is how CI's
/// bench-guard exercises the residency layer.
pub fn scaling(cfg: &ExpConfig) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let storage = if cfg.on_disk { "on-disk" } else { "resident" };
    let mut out = format!(
        "== Scaling: OBJ wall-clock vs worker threads, fig13 + skew workloads + out-of-core \
         (scale {}, {storage} storage, {cores} core(s) available) ==\n",
        cfg.scale
    );
    if cores < 2 {
        out.push_str(
            "note: single-core machine — wall-clock speedup is capped at 1.0x; \
             the sweep still validates determinism and records raw numbers.\n",
        );
    }
    let scratch = std::env::temp_dir().join(format!(
        "ringjoin-scaling-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&scratch).expect("create scaling scratch dir");
    let mut t = Table::new(&[
        "combination",
        "threads",
        "wall(s)",
        "speedup",
        "faults",
        "hits",
        "prefetch",
        "hit-rate",
        "node_acc",
        "results",
    ]);
    let mut json_entries: Vec<String> = Vec::new();
    let record = |t: &mut Table,
                  json: &mut Vec<String>,
                  name: &str,
                  threads: usize,
                  m: &Measured,
                  speedup: f64| {
        t.row(vec![
            name.to_string(),
            threads.to_string(),
            secs(m.cpu_secs),
            format!("{speedup:.2}x"),
            m.io.read_faults.to_string(),
            m.io.read_hits.to_string(),
            m.io.prefetch_hits.to_string(),
            format!("{:.1}%", 100.0 * m.io.read_hit_rate()),
            m.io.logical_reads.to_string(),
            m.stats.result_pairs.to_string(),
        ]);
        json.push(format!(
            "    {{\"combination\": \"{name}\", \"mode\": \"{}\", \"threads\": {threads}, \
             \"wall_secs\": {:.6}, \"speedup_vs_sequential\": {:.4}, \"read_faults\": {}, \
             \"read_hits\": {}, \"prefetch_hits\": {}, \"hit_rate\": {:.4}, \
             \"logical_reads\": {}, \"result_pairs\": {}}}",
            if threads == 1 {
                "sequential"
            } else {
                "parallel"
            },
            m.cpu_secs,
            speedup,
            m.io.read_faults,
            m.io.read_hits,
            m.io.prefetch_hits,
            m.io.read_hit_rate(),
            m.io.logical_reads,
            m.stats.result_pairs,
        ));
    };
    // Lazily built: each workload owns a MemDisk plus a cached full
    // page snapshot, so only one lives at a time.
    let workloads = COMBINATIONS
        .iter()
        .map(|&(name, q, p)| (name, combo_workload(cfg, q, p)))
        .chain(
            SCALING_SKEW
                .iter()
                .map(|&name| (name, skew_workload(cfg, name))),
        );
    for (name, w) in workloads {
        let w = &w;
        if cfg.on_disk {
            w.spill_to(&scratch.join(format!("{}.rjp", name.replace('\'', "-prime"))));
        }
        let mut baseline_secs = 0.0f64;
        let mut baseline_keys: Vec<(u64, u64)> = Vec::new();
        for threads in SCALING_THREADS {
            let opts = RcjOptions::default().with_executor(Executor::threads(threads));
            let (m, keys) = run_rcj_with_keys(w, &opts);
            if threads == 1 {
                baseline_secs = m.cpu_secs;
                baseline_keys = keys;
            } else {
                assert_eq!(
                    baseline_keys, keys,
                    "parallel run at {threads} threads diverged from sequential on {name}"
                );
            }
            let speedup = baseline_secs / m.cpu_secs.max(1e-12);
            record(&mut t, &mut json_entries, name, threads, &m, speedup);
        }
    }

    // Out-of-core phase: the SP workload several times larger than its
    // buffer. The page space moves to an on-disk page file, the budget
    // is pinned to a quarter of the dataset's pages, and the join must
    // stay byte-identical to the sequential in-budget run while
    // `read_faults` tracks the budget (the paper's I/O model), not the
    // dataset size.
    {
        let (name, q, p) = ("SP-OOC", GnisDataset::Schools, GnisDataset::PopulatedPlaces);
        let w = combo_workload(cfg, q, p);
        w.spill_to(&scratch.join("sp-ooc.rjp"));
        let budget = (w.node_pages() / 4).max(1);
        w.set_buffer_pages(budget);
        let _ = writeln!(
            out,
            "out-of-core: SP page space spilled ({} pages), buffer pinned to {budget}",
            w.node_pages()
        );
        let mut baseline_secs = 0.0f64;
        let mut baseline_keys: Vec<(u64, u64)> = Vec::new();
        for threads in OOC_THREADS {
            let opts = RcjOptions::default().with_executor(Executor::threads(threads));
            let (m, keys) = run_rcj_with_keys(&w, &opts);
            if threads == 1 {
                baseline_secs = m.cpu_secs;
                baseline_keys = keys;
            } else {
                assert_eq!(
                    baseline_keys, keys,
                    "out-of-core run at {threads} threads diverged from sequential"
                );
            }
            assert!(
                m.io.read_faults > 0,
                "a quarter-size budget must fault pages in from the file"
            );
            assert_eq!(
                m.io.read_hits + m.io.read_faults,
                m.io.logical_reads,
                "hits + faults must partition the logical reads"
            );
            let speedup = baseline_secs / m.cpu_secs.max(1e-12);
            record(&mut t, &mut json_entries, name, threads, &m, speedup);
        }
    }
    // Live-update phase: the SP workload again, now mutated between
    // queries through the engine's epoch-versioned update path. Each
    // round applies one deterministic seeded batch — fresh inserts,
    // then moves (upserts), then deletes, then a mixed batch — and
    // re-runs the join. Three invariants are asserted per round: the
    // dataset epoch advances by exactly one, the accounting identity
    // `read_hits + read_faults == logical_reads` survives copy-on-write
    // page versioning, and (after the last round) the answer is
    // byte-identical to a second engine that replayed the identical
    // mutation history. Pair order follows the tree structure, which
    // follows the mutation history — so the oracle replays it; a bulk
    // rebuild of the final pointset would be the wrong reference.
    let mut ut = Table::new(&[
        "round",
        "epoch",
        "ops",
        "update(s)",
        "join(s)",
        "node_acc",
        "hits",
        "faults",
        "results",
    ]);
    let mut update_entries: Vec<String> = Vec::new();
    {
        use ringjoin_core::{Engine, IndexKind};
        use ringjoin_server::Mutation;
        use std::time::Instant;
        let np = cfg.n(GnisDataset::PopulatedPlaces.full_cardinality());
        let nq = cfg.n(GnisDataset::Schools.full_cardinality());
        let p_items = gnis_like(GnisDataset::PopulatedPlaces, np);
        let q_items = gnis_like(GnisDataset::Schools, nq);
        let batch = (np / 20).max(8);
        let build = |suffix: &str| -> Engine {
            let mut engine = Engine::new();
            engine.load("p", p_items.clone()).index(IndexKind::Rtree);
            engine.load("q", q_items.clone()).index(IndexKind::Rtree);
            if cfg.on_disk {
                let path = scratch.join(format!("updates-{suffix}.rjp"));
                engine
                    .pager()
                    .borrow_mut()
                    .spill_to(&path)
                    .unwrap_or_else(|e| panic!("spilling to {}: {e}", path.display()));
            }
            engine.set_buffer_frac(DEFAULT_BUFFER_FRAC);
            engine
        };

        // The seeded batches: coordinates from one uniform pool, fresh
        // ids minted above the loaded range, moves/deletes drawn from
        // ids this phase inserted plus a slice of the original load.
        let pool = uniform(UPDATE_ROUNDS * batch * 2, 9001);
        let mut cursor = 0usize;
        let id_base = 1u64 << 32;
        let inserts: Vec<u64> = (0..batch as u64).map(|i| id_base + i).collect();
        let mut rounds: Vec<Vec<Mutation>> = Vec::with_capacity(UPDATE_ROUNDS);
        // Round 1: fresh inserts above the loaded id range.
        let mut ops = Vec::with_capacity(batch);
        for &id in &inserts {
            ops.push(Mutation::Insert(ringjoin_rtree::Item::new(
                id,
                pool[cursor].point,
            )));
            cursor += 1;
        }
        rounds.push(ops);
        // Round 2: move half of them, mint the other half via upsert.
        let mut ops = Vec::with_capacity(batch);
        for &id in inserts.iter().take(batch / 2) {
            ops.push(Mutation::Upsert(ringjoin_rtree::Item::new(
                id,
                pool[cursor].point,
            )));
            cursor += 1;
        }
        for i in 0..(batch - batch / 2) as u64 {
            ops.push(Mutation::Upsert(ringjoin_rtree::Item::new(
                id_base + batch as u64 + i,
                pool[cursor].point,
            )));
            cursor += 1;
        }
        rounds.push(ops);
        // Round 3: delete a quarter of the fresh ids and a quarter-batch
        // slice of the original load (gnis ids are 0..n-1).
        let mut ops = Vec::with_capacity(batch / 2);
        ops.extend(
            inserts
                .iter()
                .skip(batch / 2)
                .take(batch / 4)
                .map(|&id| Mutation::Delete(id)),
        );
        ops.extend((0..(batch / 4) as u64).map(Mutation::Delete));
        rounds.push(ops);
        // Round 4: a mixed batch — the engine path (unlike the wire, one
        // verb per request) applies inserts, upserts and deletes in one
        // atomic epoch.
        let mut ops = Vec::with_capacity(batch);
        for i in 0..(batch / 2) as u64 {
            ops.push(Mutation::Insert(ringjoin_rtree::Item::new(
                id_base + 2 * batch as u64 + i,
                pool[cursor].point,
            )));
            cursor += 1;
        }
        for &id in inserts.iter().take(batch / 4) {
            ops.push(Mutation::Upsert(ringjoin_rtree::Item::new(
                id,
                pool[cursor].point,
            )));
            cursor += 1;
        }
        ops.extend(((batch / 4) as u64..(batch / 2) as u64).map(Mutation::Delete));
        rounds.push(ops);

        let apply = |engine: &mut Engine, ops: &[Mutation]| -> u64 {
            engine
                .update("p")
                .mutations(ops)
                .apply()
                .expect("update batch validated")
                .epoch()
        };

        let mut engine = build("live");
        let mut last_keys: Vec<(u64, u64)> = Vec::new();
        for (round, ops) in rounds.iter().enumerate() {
            let t0 = Instant::now();
            let epoch = apply(&mut engine, ops);
            let update_secs = t0.elapsed().as_secs_f64();
            assert_eq!(
                epoch,
                (round + 1) as u64,
                "dataset epoch must advance by exactly one per update round"
            );
            engine.pager().borrow_mut().reset_stats();
            let t0 = Instant::now();
            let plan = engine
                .query()
                .join("q", "p")
                .algorithm(RcjAlgorithm::Obj)
                .plan()
                .expect("post-update plan");
            let m = plan.collect();
            let join_secs = t0.elapsed().as_secs_f64();
            let io = engine.pager().borrow().stats();
            assert_eq!(
                io.read_hits + io.read_faults,
                io.logical_reads,
                "hits + faults must partition the logical reads under COW versioning"
            );
            last_keys = m.pairs.iter().map(|pr| pr.key()).collect();
            ut.row(vec![
                (round + 1).to_string(),
                epoch.to_string(),
                ops.len().to_string(),
                secs(update_secs),
                secs(join_secs),
                io.logical_reads.to_string(),
                io.read_hits.to_string(),
                io.read_faults.to_string(),
                m.stats.result_pairs.to_string(),
            ]);
            update_entries.push(format!(
                "    {{\"round\": {}, \"epoch\": {epoch}, \"ops\": {}, \
                 \"update_secs\": {update_secs:.6}, \"join_secs\": {join_secs:.6}, \
                 \"logical_reads\": {}, \"read_hits\": {}, \"read_faults\": {}, \
                 \"prefetch_hits\": {}, \"result_pairs\": {}}}",
                round + 1,
                ops.len(),
                io.logical_reads,
                io.read_hits,
                io.read_faults,
                io.prefetch_hits,
                m.stats.result_pairs,
            ));
        }

        // The identically-mutated oracle: replay the same batches on a
        // fresh engine and require the same pairs in the same order.
        let mut oracle = build("oracle");
        for ops in &rounds {
            apply(&mut oracle, ops);
        }
        let m = oracle
            .query()
            .join("q", "p")
            .algorithm(RcjAlgorithm::Obj)
            .plan()
            .expect("oracle plan")
            .collect();
        let oracle_keys: Vec<(u64, u64)> = m.pairs.iter().map(|pr| pr.key()).collect();
        assert_eq!(
            last_keys, oracle_keys,
            "live-updated engine diverged from the identically-mutated oracle"
        );
    }
    std::fs::remove_dir_all(&scratch).ok();
    out.push_str(&t.render());
    out.push_str(
        "-- live updates: one seeded batch per round, epoch +1 per round, \
         replayed-history oracle asserted --\n",
    );
    out.push_str(&ut.render());

    // Provenance lives in the schema itself, not just README prose:
    // `available_cores` plus an explicit `single_core_container` flag,
    // so downstream trajectory tooling never misreads the ~1.0x
    // speedups a single-core recording produces as regressions. The
    // `storage` field keeps a disk-native recording from ever being
    // compared against a resident baseline (the hit/fault split is
    // prefetch-timing dependent on disk).
    let json = format!(
        "{{\n  \"experiment\": \"scaling\",\n  \"workload\": \"fig13+skew+ooc+updates\",\n  \
         \"algorithm\": \"OBJ\",\n  \"scale\": {},\n  \"storage\": \"{storage}\",\n  \
         \"available_cores\": {cores},\n  \
         \"single_core_container\": {},\n  \
         \"speedups_meaningful\": {},\n  \
         \"thread_counts\": {:?},\n  \"update_rounds\": {UPDATE_ROUNDS},\n  \
         \"entries\": [\n{}\n  ],\n  \"updates\": [\n{}\n  ]\n}}\n",
        cfg.scale,
        cores < 2,
        cores >= 2,
        SCALING_THREADS,
        json_entries.join(",\n"),
        update_entries.join(",\n")
    );
    let path = match &cfg.scaling_out {
        Some(p) => p.clone(),
        None => std::env::var("RINGJOIN_SCALING_OUT")
            .unwrap_or_else(|_| "BENCH_scaling.json".to_string()),
    };
    match std::fs::write(&path, &json) {
        Ok(()) => {
            let _ = writeln!(out, "raw numbers written to {path}");
        }
        Err(e) => {
            let _ = writeln!(out, "could not write {path}: {e}");
        }
    }
    out
}

/// Shard counts swept by the [`serving`] experiment.
pub const SERVING_SHARDS: [usize; 3] = [1, 2, 4];

/// Requests measured per operation and shard count by [`serving`].
pub const SERVING_REQUESTS: usize = 5;

/// Concurrent-client counts measured by the [`serving`] experiment's
/// multi-session phase (at the largest shard count).
pub const SERVING_CLIENTS: [usize; 2] = [2, 4];

/// Nearest-rank percentile over an unsorted sample, in the sample's
/// unit. Empty samples report 0 (a fresh run, not a NaN).
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Serving experiment (the sharded-server entry of the perf
/// trajectory): requests/sec against a live `ringjoin-server` over TCP
/// vs shard count, on the SP workload (Schools outer, PopulatedPlaces
/// inner).
///
/// Per shard count: bind an ephemeral-port server, `LOAD` both
/// datasets, then time [`SERVING_REQUESTS`] `JOIN` and `TOPK` requests
/// end-to-end (wire + fan-out + merge), recording throughput plus
/// nearest-rank p50/p99 latencies. The determinism guarantee is
/// asserted on every sweep — the join answer must be byte-identical
/// across shard counts.
///
/// A second phase re-runs the largest shard count with
/// [`SERVING_CLIENTS`] concurrent sessions, each its own TCP
/// connection issuing [`SERVING_REQUESTS`] joins: aggregate req/s and
/// cross-session p50/p99 are recorded, and every session's every
/// answer is checked byte-identical to the single-session baseline.
///
/// Raw numbers are written as JSON to `BENCH_serving.json` (override
/// with the `serving_out` field or `RINGJOIN_SERVING_OUT`); wall-clock
/// figures are advisory on shared runners, so regression gating keys
/// on the deterministic I/O counters of `BENCH_scaling.json` instead.
pub fn serving(cfg: &ExpConfig) -> String {
    use ringjoin_server::{Client, Server, ServerConfig};
    use std::time::Instant;

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = format!(
        "== Serving: requests/sec vs shard count, SP workload over TCP \
         (scale {}, {cores} core(s) available) ==\n",
        cfg.scale
    );
    if cores < 2 {
        out.push_str(
            "note: single-core machine — shard scaling is capped at 1.0x; \
             the sweep still validates determinism and records raw numbers.\n",
        );
    }
    let p_items = gnis_like(
        GnisDataset::PopulatedPlaces,
        cfg.n(GnisDataset::PopulatedPlaces.full_cardinality()),
    );
    let q_items = gnis_like(
        GnisDataset::Schools,
        cfg.n(GnisDataset::Schools.full_cardinality()),
    );
    let k = 10usize;

    let mut t = Table::new(&[
        "shards",
        "load(s)",
        "join req/s",
        "join p50/p99 (ms)",
        "topk req/s",
        "topk p50/p99 (ms)",
        "pairs",
        "shards queried",
    ]);
    let mut json_entries: Vec<String> = Vec::new();
    let mut baseline_pairs: Option<Vec<(u64, u64)>> = None;
    for shards in SERVING_SHARDS {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards,
            ..ServerConfig::default()
        })
        .expect("bind serving-bench server");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.serve().expect("serve"));
        let mut client = Client::connect(addr).expect("connect serving-bench client");

        let t0 = Instant::now();
        client
            .load("p", ringjoin_core::IndexKind::Rtree, &p_items)
            .expect("load p");
        client
            .load("q", ringjoin_core::IndexKind::Rtree, &q_items)
            .expect("load q");
        let load_secs = t0.elapsed().as_secs_f64();

        // Warm once, then measure; the warm-up answer doubles as the
        // determinism check across shard counts.
        let warm = client
            .join("q", "p", RcjAlgorithm::Auto, None)
            .expect("warm join");
        let keys: Vec<(u64, u64)> = warm.pairs.iter().map(|pr| pr.key()).collect();
        match &baseline_pairs {
            None => baseline_pairs = Some(keys),
            Some(base) => assert_eq!(base, &keys, "sharded answer diverged at {shards} shards"),
        }

        let mut join_ms: Vec<f64> = Vec::with_capacity(SERVING_REQUESTS);
        let t0 = Instant::now();
        for _ in 0..SERVING_REQUESTS {
            let r0 = Instant::now();
            client
                .join("q", "p", RcjAlgorithm::Auto, None)
                .expect("join");
            join_ms.push(r0.elapsed().as_secs_f64() * 1e3);
        }
        let join_rps = SERVING_REQUESTS as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        let mut topk_ms: Vec<f64> = Vec::with_capacity(SERVING_REQUESTS);
        let t0 = Instant::now();
        for _ in 0..SERVING_REQUESTS {
            let r0 = Instant::now();
            client.top_k("q", "p", k).expect("topk");
            topk_ms.push(r0.elapsed().as_secs_f64() * 1e3);
        }
        let topk_rps = SERVING_REQUESTS as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread");

        let (jp50, jp99) = (
            percentile(&mut join_ms, 50.0),
            percentile(&mut join_ms, 99.0),
        );
        let (tp50, tp99) = (
            percentile(&mut topk_ms, 50.0),
            percentile(&mut topk_ms, 99.0),
        );
        t.row(vec![
            shards.to_string(),
            secs(load_secs),
            format!("{join_rps:.2}"),
            format!("{jp50:.2}/{jp99:.2}"),
            format!("{topk_rps:.2}"),
            format!("{tp50:.2}/{tp99:.2}"),
            warm.pairs.len().to_string(),
            warm.shards_queried.to_string(),
        ]);
        json_entries.push(format!(
            "    {{\"shards\": {shards}, \"load_secs\": {load_secs:.6}, \
             \"join_req_per_sec\": {join_rps:.4}, \"topk_req_per_sec\": {topk_rps:.4}, \
             \"join_p50_ms\": {jp50:.4}, \"join_p99_ms\": {jp99:.4}, \
             \"topk_p50_ms\": {tp50:.4}, \"topk_p99_ms\": {tp99:.4}, \
             \"result_pairs\": {}, \"shards_queried\": {}}}",
            warm.pairs.len(),
            warm.shards_queried,
        ));
    }
    out.push_str(&t.render());

    // Concurrent phase: the largest shard count again, now with
    // [`SERVING_CLIENTS`] sessions hammering joins at once. Aggregate
    // throughput and cross-session tail latency are recorded; byte
    // identity against the single-session baseline is asserted on
    // every reply of every session.
    let shards = *SERVING_SHARDS.last().expect("non-empty shard sweep");
    let baseline = baseline_pairs.as_ref().expect("baseline recorded");
    let mut ct = Table::new(&["clients", "join req/s", "p50 (ms)", "p99 (ms)", "pairs"]);
    let mut conc_entries: Vec<String> = Vec::new();
    for clients in SERVING_CLIENTS {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards,
            max_sessions: clients + 2,
            ..ServerConfig::default()
        })
        .expect("bind concurrent serving-bench server");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.serve().expect("serve"));
        let mut loader = Client::connect(addr).expect("connect loader");
        loader
            .load("p", ringjoin_core::IndexKind::Rtree, &p_items)
            .expect("load p");
        loader
            .load("q", ringjoin_core::IndexKind::Rtree, &q_items)
            .expect("load q");

        let t0 = Instant::now();
        let mut all_ms: Vec<f64> = Vec::with_capacity(clients * SERVING_REQUESTS);
        std::thread::scope(|scope| {
            let sessions: Vec<_> = (0..clients)
                .map(|_| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect session");
                        let mut ms = Vec::with_capacity(SERVING_REQUESTS);
                        for _ in 0..SERVING_REQUESTS {
                            let r0 = Instant::now();
                            let out = client
                                .join("q", "p", RcjAlgorithm::Auto, None)
                                .expect("concurrent join");
                            ms.push(r0.elapsed().as_secs_f64() * 1e3);
                            let keys: Vec<(u64, u64)> =
                                out.pairs.iter().map(|pr| pr.key()).collect();
                            assert_eq!(
                                &keys, baseline,
                                "concurrent session answer diverged from baseline"
                            );
                        }
                        ms
                    })
                })
                .collect();
            for s in sessions {
                all_ms.extend(s.join().expect("session thread"));
            }
        });
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        let total = (clients * SERVING_REQUESTS) as f64;
        let rps = total / wall;
        loader.shutdown().expect("shutdown");
        handle.join().expect("server thread");

        let (p50, p99) = (percentile(&mut all_ms, 50.0), percentile(&mut all_ms, 99.0));
        ct.row(vec![
            clients.to_string(),
            format!("{rps:.2}"),
            format!("{p50:.2}"),
            format!("{p99:.2}"),
            baseline.len().to_string(),
        ]);
        conc_entries.push(format!(
            "    {{\"clients\": {clients}, \"shards\": {shards}, \
             \"join_req_per_sec\": {rps:.4}, \"p50_ms\": {p50:.4}, \"p99_ms\": {p99:.4}, \
             \"requests\": {}, \"result_pairs\": {}}}",
            clients * SERVING_REQUESTS,
            baseline.len(),
        ));
    }
    out.push_str(&format!(
        "-- concurrent sessions at {shards} shards (byte-identity asserted per reply) --\n"
    ));
    out.push_str(&ct.render());

    // Distributed phase: the same workload through the ShardBackend
    // dispatch layer — in-process worker threads vs remote workers
    // behind real TCP shard-worker servers (the full wire path: frame
    // encode, socket hop, leaf-tagged decode, global merge) at every
    // shard count. Byte identity against the phase-one baseline is
    // asserted per mode; full health is recorded as provenance.
    use ringjoin_server::{ShardWorkerServer, ShardedEngine, TopologyConfig, WorkerSpec};
    const REMOTE_KIND: &str = "in-process-tcp-workers";
    let mut dt = Table::new(&[
        "mode",
        "shards",
        "join req/s",
        "p50 (ms)",
        "p99 (ms)",
        "pairs",
        "all up",
    ]);
    let mut dist_entries: Vec<String> = Vec::new();
    for shards in SERVING_SHARDS {
        for mode in ["local-threads", "remote-procs"] {
            let workers = match mode {
                "local-threads" => WorkerSpec::Local,
                _ => WorkerSpec::Provision(std::sync::Arc::new(|_cell, _rep| {
                    let server = ShardWorkerServer::bind("127.0.0.1:0", None, 0, None)
                        .map_err(|e| e.to_string())?;
                    let addr = server.local_addr().to_string();
                    std::thread::spawn(move || {
                        let _ = server.serve();
                    });
                    Ok(addr)
                })),
            };
            let engine = ShardedEngine::with_topology(TopologyConfig {
                shards,
                workers,
                ..TopologyConfig::default()
            })
            .expect("distributed-bench topology");
            engine
                .load("p", p_items.clone(), ringjoin_core::IndexKind::Rtree)
                .expect("load p");
            engine
                .load("q", q_items.clone(), ringjoin_core::IndexKind::Rtree)
                .expect("load q");
            let warm = engine
                .join("q", "p", RcjAlgorithm::Auto, None)
                .expect("warm distributed join");
            let keys: Vec<(u64, u64)> = warm.pairs.iter().map(|pr| pr.key()).collect();
            let baseline = baseline_pairs.as_ref().expect("baseline recorded");
            assert_eq!(
                &keys, baseline,
                "distributed answer diverged ({mode} at {shards} shards)"
            );

            let mut ms: Vec<f64> = Vec::with_capacity(SERVING_REQUESTS);
            let t0 = Instant::now();
            for _ in 0..SERVING_REQUESTS {
                let r0 = Instant::now();
                engine
                    .join("q", "p", RcjAlgorithm::Auto, None)
                    .expect("distributed join");
                ms.push(r0.elapsed().as_secs_f64() * 1e3);
            }
            let rps = SERVING_REQUESTS as f64 / t0.elapsed().as_secs_f64().max(1e-9);
            let up = engine
                .shard_health()
                .iter()
                .filter(|(state, _)| *state == "up")
                .count();
            let all_up = up == shards * engine.replicas();
            let replays = engine.replays_total();
            engine.shutdown();

            let (p50, p99) = (percentile(&mut ms, 50.0), percentile(&mut ms, 99.0));
            dt.row(vec![
                mode.to_string(),
                shards.to_string(),
                format!("{rps:.2}"),
                format!("{p50:.2}"),
                format!("{p99:.2}"),
                warm.pairs.len().to_string(),
                all_up.to_string(),
            ]);
            dist_entries.push(format!(
                "    {{\"mode\": \"{mode}\", \"shards\": {shards}, \
                 \"join_req_per_sec\": {rps:.4}, \"join_p50_ms\": {p50:.4}, \
                 \"join_p99_ms\": {p99:.4}, \"result_pairs\": {}, \
                 \"deterministic\": true, \"all_shards_up\": {all_up}, \
                 \"replays_total\": {replays}, \"remote_kind\": \"{}\"}}",
                warm.pairs.len(),
                if mode == "local-threads" {
                    "none"
                } else {
                    REMOTE_KIND
                },
            ));
        }
    }
    out.push_str(
        "-- distributed: local worker threads vs remote TCP workers \
         (byte-identity asserted per mode) --\n",
    );
    out.push_str(&dt.render());

    // Recovery phase: a durable coordinator (WAL under a scratch
    // `data_dir`) loads the workload, applies deterministic insert
    // batches, and is torn down mid-life; reopening on the same
    // directory is timed, and the healed engine's join is checked
    // byte-for-byte against the pre-restart answer. The wall-clock is
    // advisory (replay cost scales with the logged history); the
    // byte-identity flag is the durability contract.
    let recovery_json = {
        use ringjoin_server::Mutation;
        const RECOVERY_BATCHES: usize = 8;
        const RECOVERY_BATCH_SIZE: usize = 16;
        let dir =
            std::env::temp_dir().join(format!("ringjoin-bench-recovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = |dir: &std::path::Path| {
            ShardedEngine::with_topology(TopologyConfig {
                shards,
                data_dir: Some(dir.to_path_buf()),
                ..TopologyConfig::default()
            })
            .expect("durable serving-bench topology")
        };
        let before = {
            let engine = durable(&dir);
            engine
                .load("p", p_items.clone(), ringjoin_core::IndexKind::Rtree)
                .expect("load p");
            engine
                .load("q", q_items.clone(), ringjoin_core::IndexKind::Rtree)
                .expect("load q");
            for b in 0..RECOVERY_BATCHES {
                let ops: Vec<Mutation> = (0..RECOVERY_BATCH_SIZE)
                    .map(|i| {
                        let n = b * RECOVERY_BATCH_SIZE + i;
                        let src = &p_items[n % p_items.len()];
                        Mutation::Insert(Item::new(10_000_000 + n as u64, src.point))
                    })
                    .collect();
                engine.update("p", ops).expect("recovery-phase batch");
            }
            let warm = engine
                .join("q", "p", RcjAlgorithm::Auto, None)
                .expect("pre-restart join");
            engine.shutdown();
            warm.pairs
        }; // dropped without any checkpoint: only the WAL survives
        let t0 = Instant::now();
        let engine = durable(&dir);
        let recovery_secs = t0.elapsed().as_secs_f64();
        let replayed = engine.recovered_epochs();
        let (wal_records, wal_bytes) = engine.wal_stats();
        let after = engine
            .join("q", "p", RcjAlgorithm::Auto, None)
            .expect("post-recovery join")
            .pairs;
        let byte_identical = after == before;
        assert!(byte_identical, "recovered join diverged from pre-restart");
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let _ = writeln!(
            out,
            "-- recovery at {shards} shards: {replayed} record(s) replayed in {} \
             ({wal_bytes} WAL byte(s)), byte-identical: {byte_identical} --",
            secs(recovery_secs)
        );
        format!(
            "    {{\"shards\": {shards}, \"records_replayed\": {replayed}, \
             \"recovery_secs\": {recovery_secs:.6}, \"wal_records\": {wal_records}, \
             \"wal_bytes\": {wal_bytes}, \"mutation_batches\": {RECOVERY_BATCHES}, \
             \"byte_identical\": {byte_identical}}}"
        )
    };

    let json = format!(
        "{{\n  \"experiment\": \"serving\",\n  \"workload\": \"SP\",\n  \
         \"transport\": \"tcp-loopback\",\n  \"scale\": {},\n  \
         \"available_cores\": {cores},\n  \"single_core_container\": {},\n  \
         \"speedups_meaningful\": {},\n  \"requests_per_mode\": {SERVING_REQUESTS},\n  \
         \"top_k\": {k},\n  \"shard_counts\": {:?},\n  \
         \"client_counts\": {:?},\n  \"entries\": [\n{}\n  ],\n  \
         \"concurrent\": [\n{}\n  ],\n  \"distributed\": [\n{}\n  ],\n  \
         \"recovery\":\n{}\n}}\n",
        cfg.scale,
        cores < 2,
        cores >= 2,
        SERVING_SHARDS,
        SERVING_CLIENTS,
        json_entries.join(",\n"),
        conc_entries.join(",\n"),
        dist_entries.join(",\n"),
        recovery_json
    );
    let path = match &cfg.serving_out {
        Some(p) => p.clone(),
        None => std::env::var("RINGJOIN_SERVING_OUT")
            .unwrap_or_else(|_| "BENCH_serving.json".to_string()),
    };
    match std::fs::write(&path, &json) {
        Ok(()) => {
            let _ = writeln!(out, "raw numbers written to {path}");
        }
        Err(e) => {
            let _ = writeln!(out, "could not write {path}: {e}");
        }
    }
    out
}

/// [`run_rcj`](crate::harness::run_rcj) plus the result keys (in driver
/// order), for the determinism assertion of the scaling experiment.
/// Measurement discipline is `run_phase`'s, identical to every figure.
fn run_rcj_with_keys(w: &Workload, opts: &RcjOptions) -> (Measured, Vec<(u64, u64)>) {
    let (out, mut m) = run_phase(w, || rcj_join(&w.tq, &w.tp, opts));
    m.stats = out.stats;
    (m, out.pairs.iter().map(|pr| pr.key()).collect())
}

/// All experiment ids, in presentation order.
pub const ALL: [&str; 15] = [
    "table2",
    "table4",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "baselines",
    "ext_costmodel",
    "scaling",
    "serving",
];

/// Runs one experiment by id.
pub fn run(id: &str, cfg: &ExpConfig) -> Option<String> {
    Some(match id {
        "table2" => table2(cfg),
        "table4" => table4(cfg),
        "fig10" => fig10(cfg),
        "fig11" => fig11(cfg),
        "fig12" => fig12(cfg),
        "fig13" => fig13(cfg),
        "fig14" => fig14(cfg),
        "fig15" => fig15(cfg),
        "fig16" => fig16(cfg),
        "fig17" => fig17(cfg),
        "fig18" => fig18(cfg),
        "baselines" => baselines(cfg),
        "ext_costmodel" => ext_costmodel(cfg),
        "scaling" => scaling(cfg),
        "serving" => serving(cfg),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every advertised experiment id dispatches; unknown ids do not.
    /// (Run at a tiny scale so the whole table executes in seconds.)
    #[test]
    fn dispatch_table_is_complete() {
        // Keep the scaling experiment's JSON out of the repo tree when
        // the dispatch test sweeps every experiment.
        let dir = std::env::temp_dir().join(format!(
            "ringjoin-bench-dispatch-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        // A field, not a set_var: mutating the environment races with the
        // Executor::from_env reads of concurrently running tests.
        let cfg = ExpConfig {
            scale: 0.004,
            scaling_out: Some(
                dir.join("BENCH_scaling.json")
                    .to_string_lossy()
                    .into_owned(),
            ),
            serving_out: Some(
                dir.join("BENCH_serving.json")
                    .to_string_lossy()
                    .into_owned(),
            ),
            ..Default::default()
        };
        for id in ALL {
            assert!(
                run(id, &cfg).is_some(),
                "experiment {id} missing from dispatch"
            );
        }
        assert!(run("fig99", &cfg).is_none());
        assert!(run("", &cfg).is_none());
    }

    /// The disk-native sweep: every workload spilled to a page file,
    /// the recorded JSON labelled `on-disk` with `prefetch_hits` in
    /// every entry, and the out-of-core rows present.
    #[test]
    fn scaling_on_disk_records_prefetch_hits_and_ooc_rows() {
        let dir = std::env::temp_dir().join(format!(
            "ringjoin-bench-ondisk-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("BENCH_scaling.json");
        let cfg = ExpConfig {
            scale: 0.004,
            on_disk: true,
            scaling_out: Some(out_path.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let report = scaling(&cfg);
        assert!(report.contains("on-disk storage"), "report: {report}");
        assert!(report.contains("live updates"), "report: {report}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("\"storage\": \"on-disk\""));
        assert!(json.contains("\"prefetch_hits\""));
        assert!(json.contains("\"combination\": \"SP-OOC\""));
        // The live-update phase recorded one entry per round, epochs
        // counting 1..UPDATE_ROUNDS.
        assert!(json.contains("\"update_rounds\": 4"));
        for round in 1..=UPDATE_ROUNDS {
            assert!(
                json.contains(&format!("\"round\": {round}, \"epoch\": {round},")),
                "missing update round {round} in {json}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scaled_sizes_have_a_floor() {
        let cfg = ExpConfig {
            scale: 1e-9,
            ..Default::default()
        };
        assert_eq!(cfg.n(200_000), 10, "scale floor protects tiny runs");
        let full = ExpConfig {
            scale: 1.0,
            ..Default::default()
        };
        assert_eq!(full.n(177_983), 177_983);
    }

    #[test]
    fn distance_factor_preserves_density() {
        let cfg = ExpConfig {
            scale: 0.25,
            ..Default::default()
        };
        assert!((cfg.dist_factor() - 2.0).abs() < 1e-12);
        assert_eq!(
            ExpConfig {
                scale: 1.0,
                ..Default::default()
            }
            .dist_factor(),
            1.0
        );
    }
}
