//! Ablation studies for the design choices of the reproduction.
//!
//! Three knobs the paper motivates qualitatively are quantified here:
//!
//! 1. **Frame-identifier assignment** — criticality-ordered unique
//!    identifiers (the BBC rule, Eq. 4) vs an arbitrary identity
//!    assignment;
//! 2. **SCS placement** — ASAP vs the FPS-aware placement of Fig. 2
//!    line 11;
//! 3. **DYN interference mode** — greedy vs per-cycle-optimal filled
//!    cycle maximisation (analysis pessimism vs run time).

use flexray_analysis::{analyse, Analysis, AnalysisConfig, DynAnalysisMode, ScsPlacement};
use flexray_gen::{generate, Generated, GeneratorConfig};
use flexray_model::{BusConfig, MessageClass, ModelError, PhyParams, System};
use flexray_opt::{bbc_skeleton, identity_frame_ids, Evaluator};
use std::time::Instant;

/// One ablation row: a configuration label and the cost/time it
/// achieves.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which variant.
    pub label: String,
    /// Cost value (Eq. 5) averaged over the sampled applications.
    pub avg_cost: f64,
    /// Fraction of sampled applications that were schedulable.
    pub schedulable: usize,
    /// Average analysis wall-clock (µs).
    pub avg_time_us: f64,
}

fn mid_dyn_bus(generated: &Generated) -> BusConfig {
    let mut bus = bbc_skeleton(&generated.platform, &generated.app, PhyParams::bmw_like());
    let ev = Evaluator::new(
        generated.platform.clone(),
        generated.app.clone(),
        AnalysisConfig::default(),
    );
    if let Some((min, max)) = ev.dyn_bounds(&bus) {
        bus.n_minislots = min + (max - min) / 8;
    }
    bus
}

/// One variant of an ablation: its row label, the bus it analyses
/// (derived from the application's mid-DYN BBC bus) and the analysis
/// configuration.
struct Variant {
    label: &'static str,
    bus: fn(&Generated, BusConfig) -> BusConfig,
    cfg: AnalysisConfig,
}

/// The mid-DYN BBC bus as it is.
fn same_bus(_: &Generated, bus: BusConfig) -> BusConfig {
    bus
}

/// Analyses every variant on `n` generated `nodes`-node applications
/// (seeds `seed0..`), averaging the row `metric`, the schedulable count
/// and the analysis wall-clock per variant.
fn ablate(
    nodes: usize,
    seed0: u64,
    n: usize,
    variants: &[Variant],
    metric: fn(&System, &Analysis) -> f64,
) -> Result<Vec<AblationRow>, ModelError> {
    let cfg = GeneratorConfig::paper(nodes);
    let mut rows: Vec<AblationRow> = variants
        .iter()
        .map(|v| AblationRow {
            label: v.label.into(),
            avg_cost: 0.0,
            schedulable: 0,
            avg_time_us: 0.0,
        })
        .collect();
    for seed in 0..n as u64 {
        let generated = generate(&cfg, seed0 + seed)?;
        let bus = mid_dyn_bus(&generated);
        for (row, variant) in rows.iter_mut().zip(variants) {
            let sys = System {
                platform: generated.platform.clone(),
                app: generated.app.clone(),
                bus: (variant.bus)(&generated, bus.clone()),
            };
            let t0 = Instant::now();
            let analysis = analyse(&sys, &variant.cfg)?;
            row.avg_time_us += t0.elapsed().as_micros() as f64 / n as f64;
            row.avg_cost += metric(&sys, &analysis) / n as f64;
            row.schedulable += usize::from(analysis.cost.is_schedulable());
        }
    }
    Ok(rows)
}

/// The global cost (Eq. 5) of an analysis.
fn cost(_: &System, analysis: &Analysis) -> f64 {
    analysis.cost.value()
}

/// Ablation 1: criticality-ordered vs identity frame identifiers, over
/// `n` generated 3-node applications.
///
/// # Errors
///
/// Propagates generator errors.
pub fn frame_id_ablation(n: usize) -> Result<Vec<AblationRow>, ModelError> {
    let variants = [
        Variant {
            label: "criticality ids (BBC rule)",
            bus: same_bus,
            cfg: AnalysisConfig::default(),
        },
        Variant {
            label: "identity ids",
            bus: |generated, mut bus| {
                bus.frame_ids = identity_frame_ids(&generated.app).into_iter().collect();
                bus
            },
            cfg: AnalysisConfig::default(),
        },
    ];
    ablate(3, 9000, n, &variants, cost)
}

/// Ablation 2: SCS placement policy, over `n` generated applications.
///
/// # Errors
///
/// Propagates generator errors.
pub fn placement_ablation(n: usize) -> Result<Vec<AblationRow>, ModelError> {
    let variant = |label, scs_placement| Variant {
        label,
        bus: same_bus,
        cfg: AnalysisConfig {
            scs_placement,
            ..AnalysisConfig::default()
        },
    };
    let variants = [
        variant("asap placement", ScsPlacement::Asap),
        variant("fps-aware placement", ScsPlacement::MinimiseFpsImpact),
    ];
    ablate(3, 9500, n, &variants, cost)
}

/// Ablation 3: greedy vs exact DYN interference mode (pessimism and run
/// time), over `n` generated applications.
///
/// # Errors
///
/// Propagates generator errors.
pub fn dyn_mode_ablation(n: usize) -> Result<Vec<AblationRow>, ModelError> {
    let variant = |label, dyn_mode| Variant {
        label,
        bus: same_bus,
        cfg: AnalysisConfig {
            dyn_mode,
            ..AnalysisConfig::default()
        },
    };
    let variants = [
        variant("greedy filled-cycles", DynAnalysisMode::Greedy),
        variant("exact filled-cycles", DynAnalysisMode::Exact),
    ];
    // average DYN response instead of global cost: the knob only
    // touches dynamic messages
    let dyn_mean = |sys: &System, analysis: &Analysis| {
        let msgs: Vec<_> = sys.app.messages_of_class(MessageClass::Dynamic).collect();
        msgs.iter()
            .map(|&m| analysis.response(m).as_us())
            .sum::<f64>()
            / msgs.len().max(1) as f64
    };
    ablate(4, 9900, n, &variants, dyn_mean)
}

/// Renders one ablation as a table.
#[must_use]
pub fn render(title: &str, metric: &str, rows: &[AblationRow], n: usize) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:+.1}", r.avg_cost),
                format!("{}/{n}", r.schedulable),
                format!("{:.0}", r.avg_time_us),
            ]
        })
        .collect();
    format!(
        "{title}\n{}",
        crate::render_table(&["variant", metric, "schedulable", "avg time (µs)"], &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn criticality_ids_no_worse_on_average() {
        let rows = frame_id_ablation(3).expect("ablation runs");
        assert_eq!(rows.len(), 2);
        // The BBC rule (Eq. 4) must not lose schedulable samples to an
        // arbitrary assignment, and its average cost must not lose by
        // more than sampling noise: on deeply-schedulable draws the two
        // assignments differ by <0.5% of |cost| either way, so an exact
        // `<=` flips with the RNG stream.
        assert!(
            rows[0].schedulable >= rows[1].schedulable,
            "criticality schedulable {} vs identity {}",
            rows[0].schedulable,
            rows[1].schedulable
        );
        assert!(
            rows[0].avg_cost <= rows[1].avg_cost + 0.01 * rows[1].avg_cost.abs() + 1e-6,
            "criticality {} vs identity {}",
            rows[0].avg_cost,
            rows[1].avg_cost
        );
    }

    #[test]
    fn exact_mode_is_slower_not_less_safe() {
        let rows = dyn_mode_ablation(2).expect("ablation runs");
        // exact packs interference at least as tightly: mean DYN WCRT >=
        assert!(rows[1].avg_cost >= rows[0].avg_cost - 1e-6);
    }

    #[test]
    fn render_includes_labels() {
        let rows = placement_ablation(1).expect("ablation runs");
        let text = render("t", "cost", &rows, 1);
        assert!(text.contains("asap"));
        assert!(text.contains("fps-aware"));
    }
}
