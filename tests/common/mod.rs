//! A line-oriented client for the `experiments serve` socket, shared by
//! the service tests.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// A line-oriented client connection.
pub struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connects to `socket`; a read that waits longer than
    /// `read_timeout` fails the test instead of hanging it.
    pub fn connect(socket: &Path, read_timeout: Option<Duration>) -> Client {
        let stream = UnixStream::connect(socket).expect("connect");
        stream.set_read_timeout(read_timeout).expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    pub fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("send");
        self.stream.write_all(b"\n").expect("send");
        self.stream.flush().expect("flush");
    }

    pub fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    /// Reads lines until the connection closes, up to `max`.
    #[allow(dead_code)] // not every test crate drains a connection
    pub fn drain_lines(&mut self, max: usize) -> Vec<String> {
        let mut out = Vec::new();
        for _ in 0..max {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => out.push(line.trim_end().to_string()),
            }
        }
        out
    }

    /// Reads until the terminal reply for `id`, returning it. Progress
    /// lines (for any request on this connection) are skipped.
    pub fn terminal(&mut self, id: &str) -> String {
        loop {
            let line = self.recv();
            if line.starts_with("progress ") {
                continue;
            }
            assert!(
                line.split(' ').nth(1) == Some(id),
                "reply for a different request: {line}"
            );
            return line;
        }
    }

    /// Issues `metrics` and parses the `k=v` payload.
    pub fn metrics(&mut self) -> HashMap<String, u64> {
        self.send("metrics");
        let line = self.recv();
        let payload = line.strip_prefix("metrics ").expect("metrics reply");
        payload
            .split(' ')
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.parse().expect("metrics value")))
            .collect()
    }
}
