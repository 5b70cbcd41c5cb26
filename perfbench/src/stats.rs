//! Percentiles under the tail rule, and due-time accounting for open
//! loops.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the figure would rest on a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// [`percentile`] under the tail rule: an error unless at least
/// [`MIN_BEYOND`] samples lie strictly beyond the reported rank.
pub fn tail(sorted: &[f64], p: f64, what: &str) -> Result<f64, String> {
    let n = sorted.len();
    let beyond = n.saturating_sub(rank(n.max(1), p));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "{what}: {n} samples leave {beyond} beyond p{}, need {MIN_BEYOND}",
            p * 100.0
        ));
    }
    Ok(percentile(sorted, p))
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// One operation of an open-loop stream, as offsets in nanoseconds from
/// the stream's start: when it was due, when the generator sent it, and
/// when its reply arrived.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenOp {
    pub due: u64,
    pub sent: u64,
    pub done: u64,
}

impl OpenOp {
    /// Latency as a user arriving on schedule sees it: from the due time,
    /// so a stall also charges the wait it imposes on later operations.
    pub fn latency_ns(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }
}

/// How late the generator itself ran, in nanoseconds: for each operation,
/// the time between the moment it could have been sent (its due time, or
/// the previous reply on the same connection if that came later) and the
/// moment it was. Waiting for the server is latency, not lateness.
pub fn generator_late_max_ns(ops: &[OpenOp]) -> u64 {
    let mut prev_done = 0u64;
    let mut worst = 0u64;
    for op in ops {
        let ready = op.due.max(prev_done);
        worst = worst.max(op.sent.saturating_sub(ready));
        prev_done = op.done;
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, ten beyond.
        assert_eq!(tail(&ramp(1000), 0.99, "x").unwrap(), 990.0);
        // 999 samples: rank 990, nine beyond.
        assert!(tail(&ramp(999), 0.99, "x").is_err());
        assert!(tail(&[], 0.99, "x").is_err());
        // The median of 20 samples (rank 10) has ten beyond it; of 19, nine.
        assert_eq!(tail(&ramp(20), 0.5, "x").unwrap(), 10.0);
        assert!(tail(&ramp(19), 0.5, "x").is_err());
    }

    #[test]
    fn nearest_rank() {
        assert_eq!(percentile(&ramp(10), 0.5), 5.0);
        assert_eq!(percentile(&ramp(10), 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.01), 7.0);
    }

    #[test]
    fn stall_is_charged_from_due_time() {
        const MS: u64 = 1_000_000;
        // Ops due every 10ms; the server stalls op 0 for 45ms, so ops 1..4
        // go out as soon as the reply lands and then answer in 1ms each.
        let mut ops = vec![OpenOp {
            due: 0,
            sent: 0,
            done: 45 * MS,
        }];
        let mut t = 45 * MS;
        for i in 1..5u64 {
            let due = i * 10 * MS;
            let sent = t.max(due);
            t = sent + MS;
            ops.push(OpenOp { due, sent, done: t });
        }
        let lat: Vec<u64> = ops.iter().map(OpenOp::latency_ns).collect();
        assert_eq!(lat, vec![45 * MS, 36 * MS, 27 * MS, 18 * MS, 9 * MS]);
        // The generator sent each op the moment it could.
        assert_eq!(generator_late_max_ns(&ops), 0);
    }

    #[test]
    fn oversleep_is_generator_lateness() {
        const MS: u64 = 1_000_000;
        let ops = [
            OpenOp {
                due: 0,
                sent: 0,
                done: MS,
            },
            // Due at 10ms, ready since the reply at 1ms, sent at 17ms.
            OpenOp {
                due: 10 * MS,
                sent: 17 * MS,
                done: 18 * MS,
            },
            OpenOp {
                due: 20 * MS,
                sent: 20 * MS,
                done: 21 * MS,
            },
        ];
        assert_eq!(generator_late_max_ns(&ops), 7 * MS);
        assert_eq!(ops[1].latency_ns(), 8 * MS);
    }
}
