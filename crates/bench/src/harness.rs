//! Shared experiment machinery: workload setup, measurement, printing.

use ringjoin_core::{rcj_join, RcjOptions, RcjStats};
use ringjoin_rtree::{bulk_load, Item, RTree};
use ringjoin_storage::{CostModel, IoStats, MemDisk, Pager, SharedPager};
use std::time::Instant;

/// The paper's page size: 1 KB.
pub const PAGE_SIZE: usize = 1024;
/// The paper's default buffer: 1% of the sum of both tree sizes.
pub const DEFAULT_BUFFER_FRAC: f64 = 0.01;

/// A join workload: two trees sharing one pager/buffer, as in Section 5.
pub struct Workload {
    /// Shared pager (both trees, one LRU buffer).
    pub pager: SharedPager,
    /// Index of the inner dataset `P`.
    pub tp: RTree,
    /// Index of the outer dataset `Q`.
    pub tq: RTree,
}

impl Workload {
    /// Builds both R*-trees in one pager and sizes the buffer to
    /// `buffer_frac` of their combined page count (min 1 page).
    pub fn build(p_items: Vec<Item>, q_items: Vec<Item>, buffer_frac: f64) -> Workload {
        let pager = Pager::new(MemDisk::new(PAGE_SIZE), usize::MAX / 2).into_shared();
        let tp = bulk_load(pager.clone(), p_items);
        let tq = bulk_load(pager.clone(), q_items);
        let total_pages = (tp.node_pages() + tq.node_pages()) as f64;
        let buf = ((total_pages * buffer_frac).ceil() as usize).max(1);
        {
            let mut pg = pager.borrow_mut();
            pg.set_buffer_capacity(buf);
            pg.clear_buffer();
            pg.reset_stats();
        }
        Workload { pager, tp, tq }
    }

    /// Resizes the buffer to a fraction of the combined tree pages
    /// (Figure 15 sweeps this).
    pub fn set_buffer_frac(&mut self, frac: f64) {
        let total_pages = (self.tp.node_pages() + self.tq.node_pages()) as f64;
        let buf = ((total_pages * frac).ceil() as usize).max(1);
        let mut pg = self.pager.borrow_mut();
        pg.set_buffer_capacity(buf);
    }

    /// Resizes the buffer to an absolute page count (the out-of-core
    /// phase pins it to a fraction of the dataset, not of RAM).
    pub fn set_buffer_pages(&self, pages: usize) {
        self.pager.borrow_mut().set_buffer_capacity(pages.max(1));
    }

    /// Combined node pages of both trees (the disk-resident footprint).
    pub fn node_pages(&self) -> usize {
        (self.tp.node_pages() + self.tq.node_pages()) as usize
    }

    /// Moves the workload's page space into an on-disk page file: after
    /// this every buffer miss is a real file read, for both the
    /// sequential pager path and the pooled parallel path.
    pub fn spill_to(&self, path: &std::path::Path) {
        self.pager
            .borrow_mut()
            .spill_to(path)
            .unwrap_or_else(|e| panic!("spilling workload pages to {}: {e}", path.display()));
    }

    /// Cold-starts the buffer and zeroes I/O statistics.
    pub fn reset(&self) {
        let mut pg = self.pager.borrow_mut();
        pg.clear_buffer();
        pg.reset_stats();
    }
}

/// One measured algorithm run.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    /// Measured **wall-clock** seconds of the join. For sequential runs
    /// (every paper figure) the workload is single-threaded and
    /// memory-resident, so wall ≈ CPU; for parallel runs (the `scaling`
    /// experiment) this is elapsed time only — total CPU across workers
    /// is higher.
    pub cpu_secs: f64,
    /// Simulated I/O seconds: faults × 10 ms (the paper's model).
    pub io_secs: f64,
    /// Raw I/O counters for the run.
    pub io: IoStats,
    /// Algorithm counters (candidates, results, ...).
    pub stats: RcjStats,
}

impl Measured {
    /// Total cost as the paper reports it: I/O time + CPU time.
    pub fn total_secs(&self) -> f64 {
        self.cpu_secs + self.io_secs
    }
}

/// Runs one RCJ configuration cold (buffer cleared, stats zeroed) and
/// measures it.
pub fn run_rcj(w: &Workload, opts: &RcjOptions) -> Measured {
    w.reset();
    let t0 = Instant::now();
    let out = rcj_join(&w.tq, &w.tp, opts);
    let cpu_secs = t0.elapsed().as_secs_f64();
    let io = w.pager.borrow().stats();
    Measured {
        cpu_secs,
        io_secs: CostModel::default().io_seconds(&io),
        io,
        stats: out.stats,
    }
}

/// Runs an arbitrary measured phase (used by the baseline-join figures).
pub fn run_phase<T>(w: &Workload, f: impl FnOnce() -> T) -> (T, Measured) {
    w.reset();
    let t0 = Instant::now();
    let value = f();
    let cpu_secs = t0.elapsed().as_secs_f64();
    let io = w.pager.borrow().stats();
    (
        value,
        Measured {
            cpu_secs,
            io_secs: CostModel::default().io_seconds(&io),
            io,
            stats: RcjStats::default(),
        },
    )
}

/// Minimal aligned-table printer for the experiment output.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Renders with right-padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = width[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats seconds with adaptive precision.
pub fn secs(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringjoin_core::RcjAlgorithm;
    use ringjoin_datagen::uniform;

    #[test]
    fn workload_buffer_is_fraction_of_trees() {
        let w = Workload::build(uniform(2000, 1), uniform(2000, 2), 0.5);
        let total = w.tp.node_pages() + w.tq.node_pages();
        assert_eq!(
            w.pager.borrow().buffer_capacity(),
            ((total as f64 * 0.5).ceil() as usize).max(1)
        );
    }

    #[test]
    fn run_rcj_measures_io_and_results() {
        let w = Workload::build(uniform(1500, 3), uniform(1500, 4), DEFAULT_BUFFER_FRAC);
        let m = run_rcj(&w, &RcjOptions::algorithm(RcjAlgorithm::Obj));
        assert!(m.stats.result_pairs > 0);
        assert!(m.io.read_faults > 0);
        assert!(m.io_secs > 0.0);
        // 10 ms per fault; written as `* 10.0 / 1000.0` so the rounding
        // matches `CostModel::io_seconds` exactly (0.010 has no exact
        // binary representation).
        assert_eq!(m.io_secs, m.io.faults() as f64 * 10.0 / 1000.0);
    }

    #[test]
    fn obj_beats_inj_on_node_accesses() {
        // The headline claim of the paper, at small scale: OBJ does fewer
        // logical node accesses (its CPU proxy) than INJ.
        let w = Workload::build(uniform(4000, 5), uniform(4000, 6), DEFAULT_BUFFER_FRAC);
        let inj = run_rcj(&w, &RcjOptions::algorithm(RcjAlgorithm::Inj));
        let obj = run_rcj(&w, &RcjOptions::algorithm(RcjAlgorithm::Obj));
        assert!(
            obj.io.logical_reads < inj.io.logical_reads,
            "OBJ {} >= INJ {}",
            obj.io.logical_reads,
            inj.io.logical_reads
        );
        assert_eq!(obj.stats.result_pairs, inj.stats.result_pairs);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "column"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a     "));
    }
}
