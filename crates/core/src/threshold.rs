//! Decision-threshold selection.
//!
//! The paper: *"We can determine the threshold by computing average match
//! count values on all normal events, and using a lower bound of output
//! values with certain confidence level (which is one minus false alarm
//! rate)."* — i.e. the threshold is the `false_alarm_rate` quantile of the
//! normal-score distribution.

/// A decision threshold together with the target false-alarm rate it was
/// selected for — the pair the persistence layer records so a re-loaded
/// detector knows both the operating point and the calibration intent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedThreshold {
    /// The decision threshold θ (events scoring strictly below are
    /// flagged).
    pub threshold: f64,
    /// The target false-alarm rate the threshold was the quantile of.
    pub false_alarm_rate: f64,
}

/// [`select_threshold`] returning the threshold together with the rate it
/// was fitted for.
///
/// # Panics
///
/// Panics if `normal_scores` is empty or `false_alarm_rate` is outside
/// `[0, 1)`.
pub fn fit_threshold(normal_scores: &[f64], false_alarm_rate: f64) -> FittedThreshold {
    FittedThreshold {
        threshold: select_threshold(normal_scores, false_alarm_rate),
        false_alarm_rate,
    }
}

/// Selects a decision threshold from scores of normal events such that at
/// most `false_alarm_rate` of them fall strictly below it.
///
/// Returns the largest threshold θ with
/// `|{s : s < θ}| / n ≤ false_alarm_rate`. Events are later classified as
/// anomalies when their score is **strictly below** θ.
///
/// # Panics
///
/// Panics if `normal_scores` is empty or `false_alarm_rate` is outside
/// `[0, 1)`.
pub fn select_threshold(normal_scores: &[f64], false_alarm_rate: f64) -> f64 {
    assert!(
        !normal_scores.is_empty(),
        "need normal scores to choose a threshold"
    );
    assert!(
        (0.0..1.0).contains(&false_alarm_rate),
        "false alarm rate must be in [0, 1)"
    );
    let mut sorted: Vec<f64> = normal_scores.to_vec();
    // Total order, so a NaN score sorts last instead of panicking; on the
    // scores the ensemble produces (in [0, 1], never -0.0) it is the
    // numeric order.
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Allow up to floor(fa * n) normal events below the threshold.
    let budget = (false_alarm_rate * n as f64).floor() as usize;
    // θ = the (budget)-th smallest score: exactly `budget` scores can lie
    // strictly below it (fewer if there are ties).
    // audit: allow(D006, reason = "n >= 1 is asserted on entry, so budget.min(n - 1) < n")
    sorted[budget.min(n - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_false_alarms_admits_every_normal_event() {
        let scores = [0.4, 0.9, 0.7, 0.5, 1.0];
        let theta = select_threshold(&scores, 0.0);
        assert_eq!(theta, 0.4);
        assert!(
            scores.iter().all(|&s| s >= theta),
            "no normal event flagged"
        );
    }

    #[test]
    fn quantile_budget_is_respected() {
        let scores: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let theta = select_threshold(&scores, 0.05);
        let flagged = scores.iter().filter(|&&s| s < theta).count();
        assert_eq!(flagged, 5, "5% of 100 normal events below threshold");
    }

    #[test]
    fn ties_do_not_overshoot_the_budget() {
        let scores = [0.5; 50];
        let theta = select_threshold(&scores, 0.1);
        let flagged = scores.iter().filter(|&&s| s < theta).count();
        assert_eq!(flagged, 0, "identical scores can never exceed the budget");
    }

    #[test]
    fn a_nan_score_sorts_last_instead_of_panicking() {
        let scores = [0.5, f64::NAN, 0.2, 0.9];
        assert_eq!(select_threshold(&scores, 0.0), 0.2);
        assert_eq!(select_threshold(&scores, 0.5), 0.9);
    }

    #[test]
    #[should_panic(expected = "need normal scores")]
    fn rejects_empty_input() {
        let _ = select_threshold(&[], 0.05);
    }

    #[test]
    #[should_panic(expected = "false alarm rate")]
    fn rejects_invalid_rate() {
        let _ = select_threshold(&[0.5], 1.0);
    }
}
