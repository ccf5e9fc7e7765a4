//! `calibrate`: run every workload many times, each time with another
//! seed, and print the spread each end-to-end bound is derived from.

use crate::metrics::{MetricDef, END_TO_END};
use crate::stats::{median, quartiles, relative_spread};
use crate::suite::{run_e2e, Context};
use crate::workload::{Profile, WORKLOADS};
use std::fmt::Write as _;

/// One workload × metric cell: the values of one set of runs.
struct Cell {
    workload: &'static str,
    metric: &'static MetricDef,
    /// `sets[s][r]`: value of run `r` of set `s`.
    sets: Vec<Vec<f64>>,
}

/// Run `sets` sets of `runs` runs per workload (seeds `1..=runs` in the
/// first set, the next `runs` seeds in the second, and so on) and
/// return the calibration table as markdown.
pub fn calibrate(
    ctx: &Context,
    profile: Profile,
    runs: usize,
    sets: usize,
) -> Result<String, String> {
    assert!(runs >= 2 && sets >= 1);
    let mut cells: Vec<Cell> = WORKLOADS
        .iter()
        .flat_map(|w| {
            END_TO_END.iter().map(|m| Cell {
                workload: w.name,
                metric: m,
                sets: vec![Vec::new(); sets],
            })
        })
        .collect();
    let mut failed = 0;
    for set in 0..sets {
        for run in 0..runs {
            let seed = (set * runs + run + 1) as u64;
            for spec in &WORKLOADS {
                let outcome = run_e2e(ctx, spec, profile, seed)?;
                failed += outcome.failed;
                for m in &outcome.metrics {
                    let cell = cells
                        .iter_mut()
                        .find(|c| c.workload == spec.name && c.metric.name == m.name)
                        .expect("every reported metric has a cell");
                    cell.sets[set].push(m.value);
                }
            }
        }
    }

    let mut md = String::new();
    let _ = writeln!(
        md,
        "| workload | metric | unit | median | q1 | q3 | spread (q3−q1)/median | 3× spread | bound | set-to-set drift |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|---|---|");
    for c in &cells {
        let first = &c.sets[0];
        let (q1, q3) = quartiles(first);
        let spread = relative_spread(first);
        // how much worse the last set's median is than the first's
        let drift = c.sets.last().filter(|_| sets > 1).map(|last| {
            let (a, b) = (median(first), median(last));
            match c.metric.better {
                crate::metrics::Better::Lower => (b - a) / a,
                crate::metrics::Better::Higher => (a - b) / a,
            }
        });
        let _ = writeln!(
            md,
            "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.2} % | {:.2} % | {:.0} % | {} |",
            c.workload,
            c.metric.name,
            c.metric.unit,
            median(first),
            q1,
            q3,
            spread * 100.0,
            spread * 300.0,
            c.metric.bound * 100.0,
            drift.map_or("—".to_owned(), |d| format!("{:+.2} %", d * 100.0)),
        );
    }
    let _ = writeln!(
        md,
        "\n{sets} set(s) of {runs} runs per workload, seeds 1..={}; {failed} failed ops in total. \
         Spread and quartiles are those of the first set, by the exclusive method \
         (Python's `statistics.quantiles(values, n=4)`); drift is how much worse the last \
         set's median is than the first's (negative: better).",
        sets * runs
    );
    Ok(md)
}
