//! The inference daemon's protocol handler.
//!
//! [`ServeHandler`] plugs the serve protocol into the evald frame
//! server ([`autofp_evald::Server`]), which owns the accept loop, the
//! thread per connection and the cooperative shutdown. A malformed
//! frame is answered with [`ServeResponse::Error`] and the connection
//! is closed; a [`ServeRequest::Shutdown`] is acknowledged and stops
//! the server.

use crate::engine::ServeEngine;
use crate::wire::{decode_request, encode_response, ServeInfo, ServeRequest, ServeResponse};
use autofp_evald::server::{FrameHandler, Next};
use std::sync::Arc;

/// Answers serve requests against one engine.
pub struct ServeHandler {
    engine: Arc<ServeEngine>,
    threads: usize,
}

impl ServeHandler {
    /// A handler over `engine`; `threads` is the per-batch prediction
    /// parallelism.
    pub fn new(engine: Arc<ServeEngine>, threads: usize) -> ServeHandler {
        ServeHandler { engine, threads: threads.max(1) }
    }

    /// Answer one decoded request.
    fn respond(&self, req: &ServeRequest) -> ServeResponse {
        let engine = &self.engine;
        match req {
            ServeRequest::Ping => ServeResponse::Pong,
            ServeRequest::Info => {
                let meta = &engine.artifact().meta;
                ServeResponse::Info(ServeInfo {
                    dataset: meta.dataset.clone(),
                    pipeline_key: meta.pipeline_key.clone(),
                    model: meta.model.name().to_string(),
                    n_features: meta.n_features,
                    n_classes: meta.n_classes,
                    accuracy: meta.accuracy,
                })
            }
            ServeRequest::Predict { rows } => {
                let report = engine.predict_batch(rows, self.threads);
                ServeResponse::PredictAck { outcomes: report.outcomes, stats: engine.stats() }
            }
            ServeRequest::Stats => ServeResponse::Stats(engine.stats()),
            ServeRequest::Shutdown => ServeResponse::ShutdownAck,
        }
    }
}

impl FrameHandler for ServeHandler {
    fn handle_frame(&self, payload: &[u8]) -> (Vec<u8>, Next) {
        match decode_request(payload) {
            Ok(req) => {
                let next = match req {
                    ServeRequest::Shutdown => Next::Shutdown,
                    _ => Next::Continue,
                };
                (encode_response(&self.respond(&req)), next)
            }
            Err(err) => (encode_response(&ServeResponse::Error(err)), Next::Close),
        }
    }
}
