//! Raw-socket client helpers shared by the loopback test crates.  Each test
//! crate compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use banks_graph::{DataGraph, GraphBuilder};

/// writes -> {author "Jim Gray", paper "Granularity of locks"}.
pub fn tiny_graph() -> DataGraph {
    let mut b = GraphBuilder::new();
    let a = b.add_node("author", "Jim Gray");
    let p = b.add_node("paper", "Granularity of locks");
    let w = b.add_node("writes", "w0");
    b.add_edge(w, a).unwrap();
    b.add_edge(w, p).unwrap();
    b.build_default()
}

/// Sends `raw` and reads the whole response (responses carry
/// `Connection: close`, so EOF is the framing).
pub fn send(addr: SocketAddr, raw: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(raw.as_bytes()).expect("send request");
    let mut response = Vec::new();
    conn.read_to_end(&mut response).expect("read response");
    String::from_utf8(response).expect("utf-8 response")
}

pub fn get(addr: SocketAddr, path: &str) -> String {
    send(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    send(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

pub fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line in {response:?}"))
}

pub fn header_of<'a>(response: &'a str, name: &str) -> Option<&'a str> {
    let head = response.split("\r\n\r\n").next().unwrap_or("");
    head.lines().skip(1).find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

pub fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
}

/// The `error.code` of a JSON error envelope.
pub fn error_code(response: &str) -> String {
    banks_server::json::parse(body_of(response))
        .ok()
        .and_then(|v| {
            v.get("error")?
                .get("code")?
                .as_str()
                .map(ToString::to_string)
        })
        .unwrap_or_else(|| panic!("no error.code in {response:?}"))
}
