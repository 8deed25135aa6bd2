//! A thin blocking client for the serve endpoint (CLI + tests).

use crate::engine::{EngineStats, RowOutcome};
use crate::wire::{
    recv_response, send_request, ServeInfo, ServeRequest, ServeResponse, MAX_BATCH, MAX_FRAME,
};
use autofp_core::EvalError;
use std::net::{TcpStream, ToSocketAddrs};

fn transport(detail: impl Into<String>) -> EvalError {
    EvalError::Transport { detail: detail.into() }
}

/// One TCP connection to a serve daemon.
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connect to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServeClient, EvalError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| transport(format!("connect failed: {e}")))?;
        let _ = stream.set_nodelay(true);
        Ok(ServeClient { stream })
    }

    fn call(&mut self, req: &ServeRequest) -> Result<ServeResponse, EvalError> {
        send_request(&mut self.stream, req)?;
        match recv_response(&mut self.stream)? {
            Some(ServeResponse::Error(err)) => Err(err),
            Some(resp) => Ok(resp),
            None => Err(transport("connection closed before response")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), EvalError> {
        match self.call(&ServeRequest::Ping)? {
            ServeResponse::Pong => Ok(()),
            other => Err(transport(format!("unexpected response {other:?}"))),
        }
    }

    /// Describe the artifact behind the endpoint.
    pub fn info(&mut self) -> Result<ServeInfo, EvalError> {
        match self.call(&ServeRequest::Info)? {
            ServeResponse::Info(info) => Ok(info),
            other => Err(transport(format!("unexpected response {other:?}"))),
        }
    }

    /// Predict a batch; outcomes come back in input order.
    ///
    /// Input too large for one frame goes out as consecutive `Predict`
    /// requests, each within [`MAX_FRAME`] bytes and [`MAX_BATCH`] rows.
    /// The engine treats every row on its own, so the concatenated
    /// outcomes equal those of one big batch; the stats are the last
    /// ack's. A single row too large for a frame is a transport error.
    pub fn predict(
        &mut self,
        rows: Vec<Vec<f64>>,
    ) -> Result<(Vec<RowOutcome>, EngineStats), EvalError> {
        let lens = batch_lens(&rows, MAX_FRAME as usize, MAX_BATCH as usize)?;
        let mut rows = rows.into_iter();
        let mut outcomes = Vec::with_capacity(rows.len());
        let mut stats = EngineStats::default();
        for len in lens {
            let batch: Vec<Vec<f64>> = rows.by_ref().take(len).collect();
            match self.call(&ServeRequest::Predict { rows: batch })? {
                ServeResponse::PredictAck { outcomes: got, stats: s } => {
                    if got.len() != len {
                        return Err(transport(format!(
                            "PredictAck carries {} outcomes for {len} rows",
                            got.len()
                        )));
                    }
                    outcomes.extend(got);
                    stats = s;
                }
                other => return Err(transport(format!("unexpected response {other:?}"))),
            }
        }
        Ok((outcomes, stats))
    }

    /// Snapshot the daemon's lifetime counters.
    pub fn stats(&mut self) -> Result<EngineStats, EvalError> {
        match self.call(&ServeRequest::Stats)? {
            ServeResponse::Stats(stats) => Ok(stats),
            other => Err(transport(format!("unexpected response {other:?}"))),
        }
    }

    /// Ask the daemon to stop accepting connections.
    pub fn shutdown(&mut self) -> Result<(), EvalError> {
        match self.call(&ServeRequest::Shutdown)? {
            ServeResponse::ShutdownAck => Ok(()),
            other => Err(transport(format!("unexpected response {other:?}"))),
        }
    }
}

/// Encoded bytes of a `Predict` request before its rows: the tag and the
/// row count.
const PREDICT_HEADER: usize = 1 + 4;

/// Row counts of the consecutive `Predict` requests that carry `rows`:
/// each encodes to at most `max_bytes` and holds at most `max_rows`
/// rows. No rows still make one (empty) request.
fn batch_lens(
    rows: &[Vec<f64>],
    max_bytes: usize,
    max_rows: usize,
) -> Result<Vec<usize>, EvalError> {
    let mut lens: Vec<usize> = Vec::new();
    let mut bytes = 0;
    for (i, row) in rows.iter().enumerate() {
        let row_bytes = 4 + 8 * row.len();
        if PREDICT_HEADER + row_bytes > max_bytes {
            return Err(transport(format!(
                "row {i} has {} values and does not fit in one {max_bytes}-byte frame",
                row.len()
            )));
        }
        match lens.last_mut() {
            Some(n) if *n < max_rows && bytes + row_bytes <= max_bytes => {
                *n += 1;
                bytes += row_bytes;
            }
            _ => {
                lens.push(1);
                bytes = PREDICT_HEADER + row_bytes;
            }
        }
    }
    if lens.is_empty() {
        lens.push(0);
    }
    Ok(lens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_request;

    fn encoded_len(rows: &[Vec<f64>]) -> usize {
        encode_request(&ServeRequest::Predict { rows: rows.to_vec() }).len()
    }

    #[test]
    fn batches_fill_the_byte_budget_in_order() {
        // Rows of 0..6 values: 4..52 encoded bytes each.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64; i % 7]).collect();
        for budget in [57, 64, 100, 333] {
            let lens = batch_lens(&rows, budget, usize::MAX).expect("every row fits");
            assert_eq!(lens.iter().sum::<usize>(), rows.len(), "budget {budget}");
            let mut start = 0;
            for &len in &lens {
                let batch = &rows[start..start + len];
                assert!(len > 0 && encoded_len(batch) <= budget, "budget {budget}");
                // Greedy: the next row would not have fit.
                if let Some(next) = rows.get(start + len) {
                    let mut grown = batch.to_vec();
                    grown.push(next.clone());
                    assert!(encoded_len(&grown) > budget, "budget {budget}");
                }
                start += len;
            }
        }
    }

    #[test]
    fn batches_respect_the_row_cap() {
        let rows = vec![vec![1.0]; 10];
        assert_eq!(batch_lens(&rows, 1 << 20, 4).expect("fits"), vec![4, 4, 2]);
        assert_eq!(batch_lens(&rows, 1 << 20, 10).expect("fits"), vec![10]);
    }

    #[test]
    fn no_rows_make_one_empty_request() {
        assert_eq!(batch_lens(&[], 64, 4).expect("empty"), vec![0]);
    }

    #[test]
    fn a_row_too_large_for_a_frame_is_a_transport_error() {
        // Header 5 + row 4 + 8 * 3 = 33 bytes.
        let rows = vec![vec![1.0], vec![1.0; 3], vec![2.0]];
        assert_eq!(batch_lens(&rows, 33, 8).expect("fits exactly"), vec![1, 1, 1]);
        match batch_lens(&rows, 32, 8) {
            Err(EvalError::Transport { detail }) => assert!(detail.contains("row 1"), "{detail}"),
            other => panic!("expected a transport error, got {other:?}"),
        }
    }
}
