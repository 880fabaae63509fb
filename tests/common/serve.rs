//! Helpers for the `netexpl serve` integration tests: spin up an
//! in-process server on a free port and talk newline-framed JSON to it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use netexpl_obs::MetricsRegistry;
use netexpl_serve::protocol::write_frame;
use netexpl_serve::{EngineConfig, Server, ServerConfig};
use serde_json::Value;

/// The spec every serve test sends, small enough to synthesize quickly.
pub const SERVE_SPEC: &str = "\
// @originate P1 200.7.0.0/16
dest D1 = 200.7.0.0/16
Req1 { !(P1 -> ... -> P2) }
";

/// A compact test config: small queue, short timeouts, fast drain.
pub fn test_config(workers: usize, queue: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: queue,
        engine: EngineConfig {
            pool_capacity: 4,
            default_timeout: Duration::from_secs(30),
            max_timeout: Duration::from_secs(30),
        },
        max_request_bytes: 64 * 1024,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
    }
}

/// A running in-process server.
pub struct TestServer {
    /// Bound address.
    pub addr: SocketAddr,
    handle: std::thread::JoinHandle<MetricsRegistry>,
}

impl TestServer {
    /// Bind and run `config` on a background thread.
    pub fn start(config: ServerConfig) -> TestServer {
        let server = Server::bind(config).expect("bind test server");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        TestServer { addr, handle }
    }

    /// Send `shutdown` and wait for the server to drain, returning its
    /// final metrics.
    pub fn drain(self) -> MetricsRegistry {
        // The server may already be draining (a test sent shutdown);
        // refused or failed sends are fine then.
        let _ = try_roundtrip(self.addr, r#"{"op":"shutdown"}"#);
        self.handle.join().expect("server thread panicked")
    }
}

/// A client connection that keeps the stream open between requests.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to the test server.
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        Client {
            writer,
            reader: BufReader::new(stream),
        }
    }

    /// Send one raw line and read one response line.
    pub fn roundtrip(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv().expect("server closed the connection")
    }

    /// Send one raw line without reading.
    pub fn send(&mut self, line: &str) {
        write_frame(&mut self.writer, line).expect("write request");
    }

    /// Write raw bytes with no newline framing (for malformed-input
    /// tests: partial frames, invalid UTF-8).
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write raw bytes");
        self.writer.flush().expect("flush raw bytes");
    }

    /// Read one response line, `None` on a closed connection.
    pub fn recv(&mut self) -> Option<Value> {
        let mut buf = String::new();
        let n = self.reader.read_line(&mut buf).expect("read response");
        if n == 0 {
            return None;
        }
        Some(serde_json::from_str(buf.trim()).expect("response is JSON"))
    }

    /// Half-close the write side (simulates a client dying mid-frame).
    pub fn shutdown_write(&mut self) {
        self.writer.shutdown(std::net::Shutdown::Write).unwrap();
    }
}

/// One-shot request on a fresh connection; `Err` when the connection was
/// refused or closed without a response.
pub fn try_roundtrip(addr: SocketAddr, line: &str) -> Result<Value, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    write_frame(&mut writer, line).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    let n = reader.read_line(&mut buf).map_err(|e| e.to_string())?;
    if n == 0 {
        return Err("connection closed without a response".into());
    }
    serde_json::from_str(buf.trim()).map_err(|e| e.to_string())
}

/// The error code of a response, if it is an error response.
pub fn error_code(v: &Value) -> Option<&str> {
    v.get("error")?.get("code")?.as_str()
}

/// Build an explain request line for [`SERVE_SPEC`].
pub fn explain_line(id: &str, timeout_ms: Option<u64>) -> String {
    let spec = SERVE_SPEC.replace('\n', "\\n");
    let timeout = timeout_ms.map_or(String::new(), |t| format!(r#","timeout_ms":{t}"#));
    format!(
        r#"{{"op":"explain","topology":"paper","spec":"{spec}","skip_lift":true,"workers":1,"id":"{id}"{timeout}}}"#
    )
}

/// Build a lint request line for [`SERVE_SPEC`].
pub fn lint_line(id: &str) -> String {
    let spec = SERVE_SPEC.replace('\n', "\\n");
    format!(r#"{{"op":"lint","topology":"paper","spec":"{spec}","id":"{id}"}}"#)
}
