//! The one TCP frame server both daemons run.
//!
//! One thread per connection, frames in / frames out, cooperative
//! shutdown. The server is generic over a [`FrameHandler`] that maps
//! one request payload to a reply payload plus what the connection
//! does next: [`crate::service::WorkerService`] plugs in for the
//! `evald` worker, the serve crate's handler for `autofp serve`. The
//! loop owns everything else: accepting, `set_nodelay`, writing the
//! reply before a close (a malformed frame is answered with the
//! protocol's error message and the connection is dropped — a hostile
//! or torn client never takes the daemon down), and, on shutdown,
//! flipping the stop flag and poking the listener awake with a
//! self-connection so the accept loop can observe it.

use crate::wire::{read_frame, write_frame};
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a connection does after its reply is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Read the next frame.
    Continue,
    /// Drop the connection: after a corrupt frame the stream's framing
    /// can no longer be trusted.
    Close,
    /// Drop the connection and stop the server.
    Shutdown,
}

/// A protocol plugged into [`Server`]: answers one request payload.
pub trait FrameHandler: Send + Sync + 'static {
    /// The reply payload for `payload`, and what the connection does
    /// after writing it.
    fn handle_frame(&self, payload: &[u8]) -> (Vec<u8>, Next);
}

/// A bound, not-yet-running frame server.
pub struct Server<H> {
    listener: TcpListener,
    handler: Arc<H>,
}

impl<H: FrameHandler> Server<H> {
    /// Bind to `addr` (use port 0 to let the OS pick a free port).
    pub fn bind(addr: impl ToSocketAddrs, handler: Arc<H>) -> io::Result<Server<H>> {
        Ok(Server { listener: TcpListener::bind(addr)?, handler })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until shut down. Each connection gets its own detached
    /// thread; a request the handler answers with [`Next::Shutdown`]
    /// stops the accept loop after its reply is written.
    pub fn run(self) -> io::Result<()> {
        let local = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        for conn in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                // A single torn accept is not fatal to the daemon.
                Err(_) => continue,
            };
            let handler = Arc::clone(&self.handler);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                if serve_connection(stream, &*handler) {
                    stop.store(true, Ordering::SeqCst);
                    // Poke the accept loop awake so it observes `stop`.
                    let _ = TcpStream::connect_timeout(&local, Duration::from_secs(1));
                }
            });
        }
        Ok(())
    }
}

/// Serve one connection to completion; returns whether the handler
/// asked for a shutdown.
fn serve_connection(mut stream: TcpStream, handler: &impl FrameHandler) -> bool {
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            // Clean EOF: the client is done with this connection.
            Ok(None) => return false,
            // Torn frame: nothing sane to answer on this stream.
            Err(_) => return false,
        };
        let (reply, next) = handler.handle_frame(&payload);
        let written = write_frame(&mut stream, &reply).is_ok();
        match next {
            Next::Continue if written => {}
            Next::Continue | Next::Close => return false,
            Next::Shutdown => return true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::WorkerService;
    use crate::wire::{encode_request, Request, Response};

    fn start_server() -> (std::net::SocketAddr, std::thread::JoinHandle<io::Result<()>>) {
        let server =
            Server::bind("127.0.0.1:0", Arc::new(WorkerService::new())).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || server.run());
        (addr, handle)
    }

    fn roundtrip(stream: &mut TcpStream, req: &Request) -> Response {
        write_frame(stream, &encode_request(req)).expect("write");
        let payload = read_frame(stream).expect("read").expect("response frame");
        crate::wire::decode_response(&payload).expect("decode")
    }

    #[test]
    fn ping_stats_and_shutdown_over_real_tcp() {
        let (addr, handle) = start_server();
        let mut stream = TcpStream::connect(addr).expect("connect");
        assert_eq!(roundtrip(&mut stream, &Request::Ping), Response::Pong);
        let Response::Stats(stats) = roundtrip(&mut stream, &Request::Stats) else {
            panic!("expected Stats");
        };
        assert_eq!(stats.served, 0);
        assert_eq!(roundtrip(&mut stream, &Request::Shutdown), Response::Pong);
        drop(stream);
        handle.join().expect("server thread").expect("server run");
    }

    #[test]
    fn corrupt_frame_gets_an_error_response_and_server_survives() {
        let (addr, handle) = start_server();
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write_frame(&mut stream, &[99, 1, 2, 3]).expect("write corrupt");
            let payload = read_frame(&mut stream).expect("read").expect("error frame");
            let resp = crate::wire::decode_response(&payload).expect("decode");
            assert!(matches!(resp, Response::Error(_)), "{resp:?}");
        }
        // The daemon still answers fresh connections afterwards.
        let mut stream = TcpStream::connect(addr).expect("reconnect");
        assert_eq!(roundtrip(&mut stream, &Request::Ping), Response::Pong);
        assert_eq!(roundtrip(&mut stream, &Request::Shutdown), Response::Pong);
        drop(stream);
        handle.join().expect("server thread").expect("server run");
    }
}
