//! The traced run's latency ledger for batch-of-one requests.
//!
//! Each traced request carries seven timestamps on one clock (the
//! benchmark drives the client and hosts the batch function in one
//! process): scheduled, send start, send end, batch start, forward start,
//! forward end, batch end, and response read. Consecutive differences
//! partition the request's client latency exactly. Two of those segments
//! span code the benchmark cannot see into — socket → queue → batch start,
//! and batch end → socket → client — so they are split with the server's
//! own stage medians (`queue_wait`, `delivery`). The ledger is a table of
//! medians, and medians do not add, so what the rows leave of the client
//! median is printed as the unattributed residual.

use crate::stats::percentile;

/// Timestamps of one request, in nanoseconds on the benchmark's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamps {
    /// Intended send time.
    pub sched: u64,
    /// Generator began encoding the frame.
    pub send_start: u64,
    /// The frame's last byte was handed to the socket.
    pub send_end: u64,
    /// The batch function was entered.
    pub batch_start: u64,
    /// Payload decode finished; forward begins.
    pub fwd_start: u64,
    /// Forward finished; output encode begins.
    pub fwd_end: u64,
    /// The batch function returned.
    pub batch_end: u64,
    /// The response frame was read by the client.
    pub recv: u64,
}

impl Stamps {
    /// Client latency in nanoseconds (scheduled → read).
    pub fn latency(&self) -> u64 {
        self.recv.saturating_sub(self.sched)
    }
}

/// One ledger row: a stage and its median in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Stage name.
    pub stage: &'static str,
    /// Median milliseconds.
    pub p50_ms: f64,
}

/// A p50 table whose rows plus `residual_ms` equal `client_p50_ms`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Stages in request order.
    pub rows: Vec<Row>,
    /// Client latency median.
    pub client_p50_ms: f64,
    /// Client median minus the sum of the row medians.
    pub residual_ms: f64,
    /// Requests the table rests on.
    pub samples: usize,
}

fn p50_ms(values: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<f64> = values.map(|ns| ns as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).unwrap_or(0.0)
}

/// Builds the ledger from per-request stamps and the server's medians of
/// queue wait and delivery (milliseconds); `None` without requests.
pub fn build(stamps: &[Stamps], queue_wait_p50_ms: f64, delivery_p50_ms: f64) -> Option<Ledger> {
    if stamps.is_empty() {
        return None;
    }
    let seg = |f: fn(&Stamps) -> (u64, u64)| {
        p50_ms(stamps.iter().map(|s| {
            let (a, b) = f(s);
            b.saturating_sub(a)
        }))
    };
    let late = seg(|s| (s.sched, s.send_start));
    let send = seg(|s| (s.send_start, s.send_end));
    let inbound = seg(|s| (s.send_end, s.batch_start));
    let codec = p50_ms(stamps.iter().map(|s| {
        s.fwd_start.saturating_sub(s.batch_start) + s.batch_end.saturating_sub(s.fwd_end)
    }));
    let forward = seg(|s| (s.fwd_start, s.fwd_end));
    let outbound = seg(|s| (s.batch_end, s.recv));
    let rows: Vec<Row> = [
        ("generator late", late),
        ("client send", send),
        ("edge in", inbound - queue_wait_p50_ms),
        ("queue wait", queue_wait_p50_ms),
        ("adapter codec", codec),
        ("forward", forward),
        ("delivery", delivery_p50_ms),
        ("edge out", outbound - delivery_p50_ms),
    ]
    .into_iter()
    .map(|(stage, p50_ms)| Row { stage, p50_ms })
    .collect();
    let client_p50_ms = p50_ms(stamps.iter().map(Stamps::latency));
    let residual_ms = client_p50_ms - rows.iter().map(|r| r.p50_ms).sum::<f64>();
    Some(Ledger {
        rows,
        client_p50_ms,
        residual_ms,
        samples: stamps.len(),
    })
}

impl Ledger {
    /// The table as text, one row per line.
    pub fn render(&self) -> String {
        let mut out = format!("  {:<16} {:>10}\n", "stage", "p50 ms");
        for r in &self.rows {
            out.push_str(&format!("  {:<16} {:>10.4}\n", r.stage, r.p50_ms));
        }
        out.push_str(&format!(
            "  {:<16} {:>10.4}\n",
            "residual", self.residual_ms
        ));
        out.push_str(&format!(
            "  {:<16} {:>10.4}   ({} requests)\n",
            "client", self.client_p50_ms, self.samples
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(base: u64, gaps: [u64; 7]) -> Stamps {
        let mut t = base;
        let mut next = |g: u64| {
            t += g;
            t
        };
        Stamps {
            sched: base,
            send_start: next(gaps[0]),
            send_end: next(gaps[1]),
            batch_start: next(gaps[2]),
            fwd_start: next(gaps[3]),
            fwd_end: next(gaps[4]),
            batch_end: next(gaps[5]),
            recv: next(gaps[6]),
        }
    }

    #[test]
    fn identical_requests_leave_no_residual() {
        let gaps = [10_000, 20_000, 2_500_000, 5_000, 900_000, 3_000, 400_000];
        let s: Vec<Stamps> = (0..5).map(|i| stamp(i * 1_000_000_000, gaps)).collect();
        let l = build(&s, 2.0, 0.1).expect("non-empty");
        let get = |name: &str| l.rows.iter().find(|r| r.stage == name).expect("row").p50_ms;
        assert!((get("edge in") - 0.5).abs() < 1e-9);
        assert!((get("edge out") - 0.3).abs() < 1e-9);
        assert!((get("adapter codec") - 0.008).abs() < 1e-9);
        assert!((get("forward") - 0.9).abs() < 1e-9);
        assert!((l.client_p50_ms - 3.838).abs() < 1e-9);
        assert!(l.residual_ms.abs() < 1e-9, "{}", l.residual_ms);
    }

    #[test]
    fn rows_plus_residual_equal_the_client_median() {
        let s: Vec<Stamps> = (0..101u64)
            .map(|i| {
                stamp(
                    0,
                    [
                        i * 100,
                        7_000,
                        1_000_000 + i * i * 50,
                        2_000,
                        800_000 + (i % 7) * 10_000,
                        1_000,
                        300_000 + (i % 13) * 40_000,
                    ],
                )
            })
            .collect();
        let l = build(&s, 1.7, 0.05).expect("non-empty");
        let sum: f64 = l.rows.iter().map(|r| r.p50_ms).sum::<f64>() + l.residual_ms;
        assert!((sum - l.client_p50_ms).abs() < 1e-9);
        assert_eq!(l.samples, 101);
        assert!(build(&[], 1.0, 1.0).is_none());
    }
}
