//! Quality-of-service contracts and the metrics collection policy.
//!
//! These are the *declaration* half of the runtime metrics layer: an
//! application (or its operator) states what "meeting the deadline" means —
//! a bound on end-to-end frame latency, a floor on the sink completion
//! rate, a ceiling on per-node budget overruns — and the simulator's
//! metrics recorder (the `bp-metrics` crate) evaluates the contracts
//! against the run and reports counts plus first-violation timestamps.
//!
//! Keeping the types here (rather than in `bp-metrics`) lets graph- and
//! policy-level code declare contracts without depending on the collection
//! machinery.

/// Declared real-time contracts for a run. All bounds are optional; an
/// empty spec declares nothing and the QoS report then only tracks the
/// always-on input-overrun count (the classic `RealTimeVerdict.violations`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QosSpec {
    /// Maximum tolerated end-to-end frame latency (first source emission
    /// of a frame to last sink EOF of that frame), in seconds.
    pub max_frame_latency_s: Option<f64>,
    /// Minimum tolerated sink completion rate: successive frame
    /// completions must arrive at least this many times per second.
    pub min_sink_rate_hz: Option<f64>,
    /// Maximum tolerated number of per-node budget overruns (firings whose
    /// measured cycle cost exceeded the declared `MethodCost` budget)
    /// summed over the whole run.
    pub max_budget_overruns: Option<u64>,
}

impl QosSpec {
    /// A spec with no declared bounds.
    pub fn none() -> Self {
        Self::default()
    }

    /// A default contract derived from a source frame rate: frames must
    /// complete within two frame periods end-to-end and the sink must keep
    /// up with the declared rate (with 1% slack for period jitter at frame
    /// boundaries). This is the contract a serving host attaches to a
    /// tenant that declares only its input rate.
    pub fn for_frame_rate(rate_hz: f64) -> Self {
        assert!(rate_hz > 0.0, "frame rate must be positive");
        Self::none()
            .with_max_frame_latency_s(2.0 / rate_hz)
            .with_min_sink_rate_hz(rate_hz * 0.99)
    }

    /// Bound end-to-end frame latency.
    pub fn with_max_frame_latency_s(mut self, s: f64) -> Self {
        self.max_frame_latency_s = Some(s);
        self
    }

    /// Bound the minimum sink completion rate.
    pub fn with_min_sink_rate_hz(mut self, hz: f64) -> Self {
        self.min_sink_rate_hz = Some(hz);
        self
    }

    /// Bound the total number of budget overruns.
    pub fn with_max_budget_overruns(mut self, n: u64) -> Self {
        self.max_budget_overruns = Some(n);
        self
    }

    /// True when no contract is declared.
    pub fn is_empty(&self) -> bool {
        self.max_frame_latency_s.is_none()
            && self.min_sink_rate_hz.is_none()
            && self.max_budget_overruns.is_none()
    }
}

/// Policy for always-on runtime metrics collection.
///
/// Passed to `SimConfig::with_metrics`; when present, the engine keeps a
/// streaming `bp-metrics` recorder alive during the run (per-PE
/// utilization intervals, firing-latency histograms, channel high-water
/// marks and stall counters, event-queue depth) and evaluates the
/// [`QosSpec`] contracts, exporting the result as a deterministic
/// snapshot tape.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsPolicy {
    /// Snapshot interval in simulated seconds. `None` resolves to the
    /// application's frame period (`1 / required_rate_hz`), falling back
    /// to 1 ms when no rate is declared.
    pub interval_s: Option<f64>,
    /// Declared real-time contracts to monitor.
    pub contracts: QosSpec,
}

impl MetricsPolicy {
    /// Metrics on, default interval (one frame period), no contracts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set an explicit snapshot interval in simulated seconds. A value
    /// that is not finite and positive is refused by the simulator as a
    /// typed error.
    pub fn with_interval_s(mut self, s: f64) -> Self {
        self.interval_s = Some(s);
        self
    }

    /// Attach QoS contracts.
    pub fn with_contracts(mut self, contracts: QosSpec) -> Self {
        self.contracts = contracts;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_empty() {
        assert!(QosSpec::none().is_empty());
        assert!(!QosSpec::none().with_max_frame_latency_s(0.1).is_empty());
    }

    #[test]
    fn frame_rate_contract_derives_both_bounds() {
        let spec = QosSpec::for_frame_rate(200.0);
        assert_eq!(spec.max_frame_latency_s, Some(0.01));
        assert_eq!(spec.min_sink_rate_hz, Some(198.0));
        assert_eq!(spec.max_budget_overruns, None);
    }

    #[test]
    fn policy_builders_compose() {
        let p = MetricsPolicy::new()
            .with_interval_s(0.25)
            .with_contracts(QosSpec::none().with_min_sink_rate_hz(24.0));
        assert_eq!(p.interval_s, Some(0.25));
        assert_eq!(p.contracts.min_sink_rate_hz, Some(24.0));
    }
}
