//! The PopVision-style text report.
//!
//! Renders a cycle profile (and, when available, the richer per-step data
//! of a [`TraceRecorder`]) as aligned text tables: phase breakdown,
//! hottest labels and compute sets, a tile-utilisation histogram, and
//! exchange volumes per step.

use ipu_sim::clock::{CycleStats, Phase};

use crate::solve_report::{tile_util, UNLABELLED};
use crate::trace::TraceRecorder;

/// Format an integer with `_` thousands separators (`1_234_567`).
fn group(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 { ((value / max) * width as f64).round() as usize } else { 0 };
    "#".repeat(n.min(width))
}

/// Render the profile report. `top_k` bounds the label / compute-set /
/// exchange tables; pass the engine's recorder for the per-step sections.
pub fn text_report(stats: &CycleStats, trace: Option<&TraceRecorder>, top_k: usize) -> String {
    let mut out = String::new();
    let dev = stats.device_cycles();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        out.push('\n');
    };

    push(&mut out, "== graphene profile ==".to_string());
    push(&mut out, format!("device cycles   : {}", group(dev)));
    push(&mut out, format!("supersteps      : {}", group(stats.supersteps())));
    push(&mut out, format!("sync barriers   : {}", group(stats.sync_count())));
    push(&mut out, format!("exchange bytes  : {}", group(stats.exchange_bytes())));
    if stats.label_underflows() > 0 {
        push(
            &mut out,
            format!(
                "label underflows: {}  (WARNING: unbalanced pop_label — attribution unreliable)",
                group(stats.label_underflows())
            ),
        );
    }
    out.push('\n');

    // ------------------------------------------------------------------
    // Phase breakdown
    // ------------------------------------------------------------------
    push(&mut out, "-- phase breakdown --".to_string());
    push(&mut out, format!("{:<10} {:>16} {:>7}", "phase", "cycles", "%"));
    for phase in Phase::ALL {
        let c = stats.phase_cycles(phase);
        push(&mut out, format!("{:<10} {:>16} {:>6.1}%", phase.name(), group(c), pct(c, dev)));
    }
    out.push('\n');

    // ------------------------------------------------------------------
    // Hottest labels
    // ------------------------------------------------------------------
    let mut labels = stats.labels_by_phase_sorted();
    if stats.unlabelled_cycles() > 0 {
        labels.push((
            UNLABELLED.to_string(),
            [
                stats.unlabelled_phase_cycles(Phase::Compute),
                stats.unlabelled_phase_cycles(Phase::Exchange),
                stats.unlabelled_phase_cycles(Phase::Sync),
            ],
        ));
    }
    if !labels.is_empty() {
        push(&mut out, format!("-- hottest labels (top {top_k}) --"));
        push(
            &mut out,
            format!(
                "{:<20} {:>16} {:>7} {:>14} {:>14} {:>12}",
                "label", "cycles", "%", "compute", "exchange", "sync"
            ),
        );
        for (name, p) in labels.iter().take(top_k) {
            let total: u64 = p.iter().sum();
            push(
                &mut out,
                format!(
                    "{:<20} {:>16} {:>6.1}% {:>14} {:>14} {:>12}",
                    name,
                    group(total),
                    pct(total, dev),
                    group(p[0]),
                    group(p[1]),
                    group(p[2])
                ),
            );
        }
        out.push('\n');
    }

    // ------------------------------------------------------------------
    // Tile utilisation
    // ------------------------------------------------------------------
    let util = tile_util(stats);
    push(&mut out, "-- tile utilisation --".to_string());
    if util.used == 0 {
        push(&mut out, "(no tile did compute work)".to_string());
    } else {
        push(
            &mut out,
            format!(
                "tiles used {}   min {}   median {}   max {}   mean {:.1}   balance {:.3}",
                util.used,
                group(util.min),
                group(util.median),
                group(util.max),
                util.mean,
                util.balance
            ),
        );
        // Histogram of busy cycles over used tiles, 10 equal-width bins.
        let busy: Vec<u64> = stats.tile_busy_all().iter().copied().filter(|&c| c > 0).collect();
        let (lo, hi) = (util.min, util.max);
        let bins = 10usize;
        let width = ((hi - lo) / bins as u64).max(1);
        let mut counts = vec![0usize; bins];
        for &b in &busy {
            let i = (((b - lo) / width) as usize).min(bins - 1);
            counts[i] += 1;
        }
        let peak = counts.iter().copied().max().unwrap_or(1) as f64;
        for (i, &c) in counts.iter().enumerate() {
            let from = lo + i as u64 * width;
            let to = if i == bins - 1 { hi } else { lo + (i as u64 + 1) * width - 1 };
            push(
                &mut out,
                format!(
                    "[{:>12} .. {:>12}] {:>5}  {}",
                    group(from),
                    group(to),
                    c,
                    bar(c as f64, peak, 40)
                ),
            );
        }
    }
    out.push('\n');

    // ------------------------------------------------------------------
    // Trace-backed sections
    // ------------------------------------------------------------------
    if let Some(t) = trace {
        let cs = t.compute_sets_sorted();
        if !cs.is_empty() {
            push(&mut out, format!("-- hottest compute sets (top {top_k}) --"));
            push(
                &mut out,
                format!("{:<24} {:>16} {:>7} {:>10}", "compute set", "cycles", "%", "runs"),
            );
            for (name, cycles, runs) in cs.iter().take(top_k) {
                push(
                    &mut out,
                    format!(
                        "{:<24} {:>16} {:>6.1}% {:>10}",
                        name,
                        group(*cycles),
                        pct(*cycles, dev),
                        group(*runs)
                    ),
                );
            }
            out.push('\n');
        }
        let ex = t.exchanges_by_name();
        if !ex.is_empty() {
            push(&mut out, format!("-- exchange volume per step (top {top_k}) --"));
            push(
                &mut out,
                format!("{:<24} {:>10} {:>16} {:>16}", "exchange", "runs", "cycles", "bytes"),
            );
            for (name, runs, cycles, bytes) in ex.iter().take(top_k) {
                push(
                    &mut out,
                    format!(
                        "{:<24} {:>10} {:>16} {:>16}",
                        name,
                        group(*runs),
                        group(*cycles),
                        group(*bytes)
                    ),
                );
            }
            out.push('\n');
        }
        if t.dropped() > 0 {
            push(
                &mut out,
                format!("(note: {} trace events dropped past the memory cap)", t.dropped()),
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_mentions_all_sections() {
        let mut s = CycleStats::new(4);
        s.push_label("spmv");
        s.record_compute([(0, 100), (1, 90), (2, 110), (3, 95)]);
        s.record_exchange(30);
        s.record_exchange_bytes(512);
        s.pop_label();
        s.record_sync(5);

        let mut t = TraceRecorder::new(4);
        t.begin_label("spmv");
        t.compute("spmv_cs", &[(0, 100), (1, 90), (2, 110), (3, 95)]);
        t.exchange("halo", 30, 512, 2);
        t.end_label();
        t.sync(5);

        let r = text_report(&s, Some(&t), 10);
        for needle in [
            "phase breakdown",
            "hottest labels",
            "tile utilisation",
            "hottest compute sets",
            "exchange volume",
            "spmv",
            "halo",
            "compute",
            "balance",
        ] {
            assert!(r.contains(needle), "missing '{needle}' in:\n{r}");
        }
        // The unlabelled sync shows up.
        assert!(r.contains(UNLABELLED));
    }

    #[test]
    fn report_handles_empty_stats() {
        let s = CycleStats::new(2);
        let r = text_report(&s, None, 5);
        assert!(r.contains("no tile did compute work"));
    }

    #[test]
    fn grouping_separates_thousands() {
        assert_eq!(group(0), "0");
        assert_eq!(group(999), "999");
        assert_eq!(group(1000), "1_000");
        assert_eq!(group(1234567), "1_234_567");
    }
}
