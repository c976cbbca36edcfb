//! Configuration evaluation: one full scheduling + schedulability
//! analysis per candidate bus configuration.
//!
//! The evaluator is a thin accounting layer over a long-lived
//! [`AnalysisSession`]: candidates are analysed *borrowed* (no `System`
//! clone per call), all analysis scratch state — including the
//! incremental DYN fixed point's pooled `DynScratch` — is reused across
//! candidates, and DYN-length sweeps take the session's
//! [`reanalyse_dyn_length`](AnalysisSession::reanalyse_dyn_length) path,
//! so the steady state of `evaluate_dyn_lengths` allocates nothing.
//!
//! With [`Evaluator::with_threads`] the batch entry points fan
//! candidates across a small pool of warm sessions — one per worker,
//! built once, each with its own scratch — on the scoped work-stealing
//! pool of [`flexray_util`]. Every candidate's analysis is a pure
//! function of the candidate (sessions only skip provably
//! input-independent work), and results are merged in input order, so
//! parallel output is bit-identical to serial for any thread count.

use flexray_analysis::{Analysis, AnalysisConfig, AnalysisSession, Cost};
use flexray_model::{Application, BusConfig, MessageClass, Platform, Time};
use flexray_util::{resolve_threads, scoped_map_with};

/// Evaluates candidate bus configurations against one fixed platform and
/// application, counting evaluations (the dominant cost of every
/// optimiser).
#[derive(Debug)]
pub struct Evaluator {
    session: AnalysisSession,
    /// Warm sessions of the extra workers (parallel mode): built once,
    /// reused across batches, one per worker beyond the primary.
    workers: Vec<AnalysisSession>,
    evals: usize,
}

/// One candidate evaluation against an arbitrary session — the body of
/// [`Evaluator::evaluate_cost`] without the accounting — returning the
/// cost and whether an analysis actually ran.
fn analyse_one(session: &mut AnalysisSession, bus: &BusConfig) -> (Cost, bool) {
    if bus
        .validate_for(session.app(), session.platform().len())
        .is_err()
    {
        return (Cost::infeasible(), false);
    }
    let cost = session
        .analyse_into(bus)
        .unwrap_or_else(|_| Cost::infeasible());
    (cost, true)
}

/// The serial DYN-length sweep of [`Evaluator::evaluate_dyn_lengths`]
/// against an arbitrary session, returning the per-length costs and how
/// many candidates were actually analysed.
fn sweep_dyn_lengths(
    session: &mut AnalysisSession,
    template: &BusConfig,
    lengths: &[u32],
) -> (Vec<Cost>, usize) {
    let mut out = Vec::with_capacity(lengths.len());
    let mut analysed = 0usize;
    let mut candidate: Option<BusConfig> = None;
    // Length of the sweep candidate the session last analysed; set
    // once the session's retained bus is template-shaped.
    let mut analysed_n: Option<u32> = None;
    for &n in lengths {
        if let Some(prev_n) = analysed_n {
            // The session already holds template-with-prev_n: flip
            // the length in place, re-validate, re-analyse.
            session
                .last_bus_mut()
                .expect("analysed_n implies a retained bus")
                .n_minislots = n;
            let valid = {
                let bus = session.last_bus().expect("retained");
                bus.validate_for(session.app(), session.platform().len())
                    .is_ok()
            };
            if !valid {
                // Restore the retained bus so it keeps describing
                // the candidate the session state was analysed for.
                session.last_bus_mut().expect("retained").n_minislots = prev_n;
                out.push(Cost::infeasible());
                continue;
            }
            analysed += 1;
            analysed_n = Some(n);
            out.push(
                session
                    .reanalyse_dyn_length(n)
                    .unwrap_or_else(|_| Cost::infeasible()),
            );
        } else {
            let bus = candidate.get_or_insert_with(|| template.clone());
            bus.n_minislots = n;
            let (cost, ran) = analyse_one(session, bus);
            if ran {
                analysed += 1;
            }
            // analyse_one stored the bus in the session unless
            // validation rejected the candidate.
            if session.last_bus() == Some(&*bus) {
                analysed_n = Some(n);
            }
            out.push(cost);
        }
    }
    (out, analysed)
}

impl Evaluator {
    /// Creates a serial evaluator over a fixed platform/application
    /// pair (one warm session; batches run in input order on the
    /// calling thread).
    #[must_use]
    pub fn new(platform: Platform, app: Application, analysis_cfg: AnalysisConfig) -> Self {
        Evaluator::with_threads(platform, app, analysis_cfg, 1)
    }

    /// Creates an evaluator whose batch entry points
    /// ([`Evaluator::evaluate_batch`],
    /// [`Evaluator::evaluate_dyn_lengths`]) fan candidates across
    /// `threads` warm [`AnalysisSession`]s on scoped worker threads
    /// (`0` = all cores, `1` = serial). Results are bit-identical to
    /// the serial evaluator for any thread count: every candidate's
    /// cost is a pure function of the candidate, results merge in
    /// input order, and the evaluation counter advances exactly as the
    /// serial order would. Single-candidate entry points always run on
    /// the primary session.
    #[must_use]
    pub fn with_threads(
        platform: Platform,
        app: Application,
        analysis_cfg: AnalysisConfig,
        threads: usize,
    ) -> Self {
        let workers = (1..resolve_threads(threads))
            .map(|_| AnalysisSession::new(platform.clone(), app.clone(), analysis_cfg))
            .collect();
        Evaluator {
            session: AnalysisSession::new(platform, app, analysis_cfg),
            workers,
            evals: 0,
        }
    }

    /// Number of warm analysis sessions the batch entry points fan out
    /// over (1 = serial).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// The application under optimisation.
    #[must_use]
    pub fn app(&self) -> &Application {
        self.session.app()
    }

    /// The platform under optimisation.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        self.session.platform()
    }

    /// The underlying analysis session (responses, table and diverged
    /// set of the last evaluation).
    #[must_use]
    pub fn session(&self) -> &AnalysisSession {
        &self.session
    }

    /// Number of full analyses performed so far.
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.evals
    }

    /// Evaluates one bus configuration: validation, global scheduling and
    /// holistic schedulability analysis. Invalid configurations get
    /// [`Cost::infeasible`] and no analysis. The cheap path used by the
    /// optimiser inner loops — no result snapshot is materialised; use
    /// [`Evaluator::session`] to inspect the last analysis.
    #[must_use]
    pub fn evaluate_cost(&mut self, bus: &BusConfig) -> Cost {
        let (cost, ran) = analyse_one(&mut self.session, bus);
        if ran {
            self.evals += 1;
        }
        cost
    }

    /// [`Evaluator::evaluate_cost`] plus an owned snapshot of the full
    /// analysis (response vector, schedule table) for callers that need
    /// more than the cost — e.g. the curve-fitting interpolation.
    #[must_use]
    pub fn evaluate(&mut self, bus: &BusConfig) -> (Cost, Option<Analysis>) {
        if bus
            .validate_for(self.session.app(), self.session.platform().len())
            .is_err()
        {
            return (Cost::infeasible(), None);
        }
        self.evals += 1;
        match self.session.analyse_into(bus) {
            Ok(cost) => (cost, Some(self.session.snapshot())),
            Err(_) => (Cost::infeasible(), None),
        }
    }

    /// Evaluates a batch of candidate configurations, amortising every
    /// per-candidate allocation over the whole batch. With more than
    /// one configured worker the candidates are work-stolen across the
    /// warm sessions on scoped threads. Results are element-wise
    /// identical to calling [`Evaluator::evaluate_cost`] per candidate
    /// in order — for any thread count — and the evaluation counter
    /// advances identically.
    #[must_use]
    pub fn evaluate_batch(&mut self, buses: &[BusConfig]) -> Vec<Cost> {
        if self.workers.is_empty() || buses.len() < 2 {
            return buses.iter().map(|bus| self.evaluate_cost(bus)).collect();
        }
        let mut sessions: Vec<&mut AnalysisSession> = std::iter::once(&mut self.session)
            .chain(self.workers.iter_mut())
            .collect();
        let results = scoped_map_with(&mut sessions, buses.len(), |session, i| {
            analyse_one(session, &buses[i])
        });
        let mut costs = Vec::with_capacity(results.len());
        for (cost, ran) in results {
            if ran {
                self.evals += 1;
            }
            costs.push(cost);
        }
        costs
    }

    /// Evaluates `template` at each dynamic-segment length of `lengths`
    /// — the sweep of Fig. 5 line 5 / Fig. 8 — without cloning the
    /// template per candidate: after the first analysed candidate the
    /// session re-analyses in place via
    /// [`AnalysisSession::reanalyse_dyn_length`].
    ///
    /// Results are element-wise identical to evaluating
    /// `template`-with-length candidates sequentially, for any thread
    /// count: with multiple workers the length list is split into one
    /// contiguous chunk per warm session, each chunk runs the serial
    /// incremental sweep, and since every candidate's cost is a pure
    /// function of `(template, length)` the concatenation equals the
    /// serial sweep bit for bit. In parallel mode
    /// [`Evaluator::session`] afterwards reflects the last candidate of
    /// the *primary worker's* chunk, not of the whole sweep.
    #[must_use]
    pub fn evaluate_dyn_lengths(&mut self, template: &BusConfig, lengths: &[u32]) -> Vec<Cost> {
        if self.workers.is_empty() || lengths.len() < 2 {
            let (costs, analysed) = sweep_dyn_lengths(&mut self.session, template, lengths);
            self.evals += analysed;
            return costs;
        }
        let threads = self.threads().min(lengths.len());
        let chunk = lengths.len().div_ceil(threads);
        let chunks: Vec<&[u32]> = lengths.chunks(chunk).collect();
        let mut sessions: Vec<&mut AnalysisSession> = std::iter::once(&mut self.session)
            .chain(self.workers.iter_mut())
            .take(chunks.len())
            .collect();
        let results = scoped_map_with(&mut sessions, chunks.len(), |session, i| {
            sweep_dyn_lengths(session, template, chunks[i])
        });
        let mut out = Vec::with_capacity(lengths.len());
        for (costs, analysed) in results {
            self.evals += analysed;
            out.extend(costs);
        }
        out
    }

    /// Applies the cost function of Eq. (5) to an (interpolated)
    /// response-time vector without running the analysis — the cheap
    /// inner step of the curve-fitting heuristic.
    #[must_use]
    pub fn cost_from_responses(&self, responses: &[Time]) -> Cost {
        // Eq. (5) only consults the application deadlines, so an empty
        // placeholder bus serves the borrowed view.
        let bus = BusConfig::new(flexray_model::PhyParams::default());
        let view =
            flexray_model::SystemView::new(self.session.platform(), self.session.app(), &bus);
        flexray_analysis::cost_of(view, responses)
    }

    /// Communication time of the largest static message (the minimal
    /// `gdStaticSlot` of Fig. 5 line 3), rounded up to whole macroticks
    /// of `phy`. `None` if the application has no static messages.
    #[must_use]
    pub fn min_static_slot_len(&self, phy: &flexray_model::PhyParams) -> Option<Time> {
        let app = self.session.app();
        app.messages_of_class(MessageClass::Static)
            .map(|m| {
                let spec = app.activity(m).as_message().expect("message");
                phy.frame_duration(spec.size_bytes)
            })
            .max()
            .map(|c| c.round_up_to(phy.gd_macrotick).max(phy.gd_macrotick))
    }

    /// Bounds of the dynamic-segment sweep in minislots for a given
    /// frame-identifier assignment and static-segment layout:
    /// `[DYNbus_min, DYNbus_max]` of Fig. 5 line 5. Returns `None` when
    /// no dynamic segment is needed (no dynamic messages) or the static
    /// segment already exceeds the 16 ms cycle budget.
    #[must_use]
    pub fn dyn_bounds(&self, bus: &BusConfig) -> Option<(u32, u32)> {
        if bus.frame_ids.is_empty() {
            return None;
        }
        let min = bus.min_minislots(self.session.app()).max(1);
        let budget = flexray_model::MAX_CYCLE - bus.st_bus();
        if budget <= Time::ZERO {
            return None;
        }
        let fit = u32::try_from(budget / bus.phy.gd_minislot).unwrap_or(u32::MAX);
        let max = fit.min(flexray_model::MAX_MINISLOTS);
        (min <= max).then_some((min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_analysis::AnalysisConfig;
    use flexray_model::*;

    fn small_app() -> (Platform, Application) {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(1000.0), Time::from_us(500.0));
        let a = app.add_task(
            g,
            "a",
            NodeId::new(0),
            Time::from_us(10.0),
            SchedPolicy::Scs,
            0,
        );
        let b = app.add_task(
            g,
            "b",
            NodeId::new(1),
            Time::from_us(10.0),
            SchedPolicy::Scs,
            0,
        );
        let st = app.add_message(g, "st", 8, MessageClass::Static, 0);
        app.connect(a, st, b).expect("edges");
        let c = app.add_task(
            g,
            "c",
            NodeId::new(0),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            5,
        );
        let d = app.add_task(
            g,
            "d",
            NodeId::new(1),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            5,
        );
        let dy = app.add_message(g, "dy", 4, MessageClass::Dynamic, 1);
        app.connect(c, dy, d).expect("edges");
        (Platform::with_nodes(2), app)
    }

    fn valid_bus(app: &Application) -> BusConfig {
        let mut bus = BusConfig::new(PhyParams::bmw_like());
        bus.static_slot_len = Time::from_us(20.0);
        bus.static_slot_owners = vec![NodeId::new(0), NodeId::new(1)];
        bus.n_minislots = 40;
        let dy = app.find("dy").expect("dy");
        bus.frame_ids.insert(dy, FrameId::new(1));
        bus
    }

    #[test]
    fn evaluate_counts_and_scores() {
        let (p, a) = small_app();
        let bus = valid_bus(&a);
        let mut ev = Evaluator::new(p, a, AnalysisConfig::default());
        assert_eq!(ev.evaluations(), 0);
        let (cost, analysis) = ev.evaluate(&bus);
        assert_eq!(ev.evaluations(), 1);
        assert!(analysis.is_some());
        assert!(cost.is_schedulable(), "cost {cost:?}");
    }

    #[test]
    fn invalid_bus_is_infeasible_without_eval() {
        let (p, a) = small_app();
        let mut bus = valid_bus(&a);
        bus.static_slot_owners.clear(); // ST sender loses its slot
        let mut ev = Evaluator::new(p, a, AnalysisConfig::default());
        let (cost, analysis) = ev.evaluate(&bus);
        assert!(!cost.is_schedulable());
        assert!(analysis.is_none());
        assert_eq!(ev.evaluations(), 0);
    }

    #[test]
    fn min_static_slot_covers_largest_frame() {
        let (p, a) = small_app();
        let ev = Evaluator::new(p, a, AnalysisConfig::default());
        let phy = PhyParams::bmw_like();
        let len = ev.min_static_slot_len(&phy).expect("has ST messages");
        assert!(len >= phy.frame_duration(8));
        assert!((len % phy.gd_macrotick).is_zero());
    }

    #[test]
    fn dyn_bounds_cover_assignment() {
        let (p, a) = small_app();
        let bus = valid_bus(&a);
        let ev = Evaluator::new(p, a, AnalysisConfig::default());
        let (min, max) = ev.dyn_bounds(&bus).expect("bounds");
        assert!(min >= 1);
        assert!(max > min);
        assert!(max <= MAX_MINISLOTS);
    }

    #[test]
    fn dyn_bounds_none_without_dyn_messages() {
        let (p, a) = small_app();
        let mut bus = valid_bus(&a);
        bus.frame_ids.clear();
        let ev = Evaluator::new(p, a, AnalysisConfig::default());
        assert!(ev.dyn_bounds(&bus).is_none());
    }

    #[test]
    fn evaluate_cost_matches_evaluate() {
        let (p, a) = small_app();
        let bus = valid_bus(&a);
        let mut ev1 = Evaluator::new(p.clone(), a.clone(), AnalysisConfig::default());
        let mut ev2 = Evaluator::new(p, a, AnalysisConfig::default());
        let (cost_full, _) = ev1.evaluate(&bus);
        let cost_cheap = ev2.evaluate_cost(&bus);
        assert_eq!(cost_full, cost_cheap);
        assert_eq!(ev1.evaluations(), ev2.evaluations());
    }

    #[test]
    fn batch_matches_sequential() {
        let (p, a) = small_app();
        let template = valid_bus(&a);
        let mut buses = Vec::new();
        for n in [20u32, 40, 60, 0, 80] {
            let mut b = template.clone();
            b.n_minislots = n; // n = 0 is invalid (frame cannot fit)
            buses.push(b);
        }
        let mut ev_batch = Evaluator::new(p.clone(), a.clone(), AnalysisConfig::default());
        let batch = ev_batch.evaluate_batch(&buses);
        let mut ev_seq = Evaluator::new(p, a, AnalysisConfig::default());
        let seq: Vec<Cost> = buses.iter().map(|b| ev_seq.evaluate_cost(b)).collect();
        assert_eq!(batch, seq);
        assert_eq!(ev_batch.evaluations(), ev_seq.evaluations());
    }

    #[test]
    fn dyn_length_sweep_matches_per_candidate_clones() {
        let (p, a) = small_app();
        let template = valid_bus(&a);
        let lengths = [20u32, 40, 0, 60, 13, 80];
        let mut ev_sweep = Evaluator::new(p.clone(), a.clone(), AnalysisConfig::default());
        let swept = ev_sweep.evaluate_dyn_lengths(&template, &lengths);
        let mut ev_seq = Evaluator::new(p, a, AnalysisConfig::default());
        let seq: Vec<Cost> = lengths
            .iter()
            .map(|&n| {
                let mut b = template.clone();
                b.n_minislots = n;
                ev_seq.evaluate_cost(&b)
            })
            .collect();
        assert_eq!(swept, seq);
        assert_eq!(ev_sweep.evaluations(), ev_seq.evaluations());
    }

    #[test]
    fn parallel_batch_matches_serial_for_thread_counts() {
        let (p, a) = small_app();
        let template = valid_bus(&a);
        let mut buses = Vec::new();
        for n in [20u32, 40, 60, 0, 80, 13, 100] {
            let mut b = template.clone();
            b.n_minislots = n; // n = 0 is invalid (frame cannot fit)
            buses.push(b);
        }
        let mut serial = Evaluator::new(p.clone(), a.clone(), AnalysisConfig::default());
        let expected = serial.evaluate_batch(&buses);
        for threads in [2usize, 4] {
            let mut par =
                Evaluator::with_threads(p.clone(), a.clone(), AnalysisConfig::default(), threads);
            assert_eq!(par.threads(), threads);
            assert_eq!(par.evaluate_batch(&buses), expected, "threads {threads}");
            assert_eq!(par.evaluations(), serial.evaluations(), "threads {threads}");
        }
    }

    #[test]
    fn parallel_dyn_sweep_matches_serial_for_thread_counts() {
        let (p, a) = small_app();
        let template = valid_bus(&a);
        // invalid lengths scattered through the list, more lengths than
        // workers and (for threads 16) more workers than lengths
        let lengths = [20u32, 40, 0, 60, 13, 80, 37, 100, 1];
        let mut serial = Evaluator::new(p.clone(), a.clone(), AnalysisConfig::default());
        let expected = serial.evaluate_dyn_lengths(&template, &lengths);
        for threads in [2usize, 4, 16] {
            let mut par =
                Evaluator::with_threads(p.clone(), a.clone(), AnalysisConfig::default(), threads);
            assert_eq!(
                par.evaluate_dyn_lengths(&template, &lengths),
                expected,
                "threads {threads}"
            );
            assert_eq!(par.evaluations(), serial.evaluations(), "threads {threads}");
        }
    }

    #[test]
    fn sweep_keeps_retained_bus_in_sync_with_session_state() {
        let (p, a) = small_app();
        let template = valid_bus(&a);
        let mut ev = Evaluator::new(p, a, AnalysisConfig::default());
        // 40 is analysed, 0 is rejected by validation mid-sweep: the
        // retained bus must keep describing the analysed candidate.
        let costs = ev.evaluate_dyn_lengths(&template, &[40, 0]);
        assert!(costs[0].is_schedulable());
        assert!(!costs[1].is_schedulable());
        let retained = ev.session().last_bus().expect("retained");
        assert_eq!(retained.n_minislots, 40);
        assert_eq!(ev.session().cost(), costs[0]);
    }

    #[test]
    fn sweep_starting_with_invalid_length_recovers() {
        let (p, a) = small_app();
        let template = valid_bus(&a);
        // first candidates invalid (frame cannot fit), later ones valid
        let lengths = [0u32, 1, 40, 60];
        let mut ev = Evaluator::new(p, a, AnalysisConfig::default());
        let costs = ev.evaluate_dyn_lengths(&template, &lengths);
        assert!(!costs[0].is_schedulable());
        assert!(!costs[1].is_schedulable());
        assert!(costs[2].is_schedulable());
        assert_eq!(ev.evaluations(), 2);
    }
}
