//! End-to-end exercises of the TCP backend with a toy protocol: echo
//! round trips, deadline behavior against silent peers, reconnect after
//! a server restart, backpressure, and the obs scrape path.

use ftc_hashring::NodeId;
use ftc_net::xport::Transport;
use ftc_net::RpcError;
use ftc_time::ClockHandle;
use ftc_wire::codec::CodecError;
use ftc_wire::codec::{put_str, Reader, Wire};
use ftc_wire::tcp::{scrape_obs, TcpConfig, TcpTransport};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Echo(String);

impl Wire for Echo {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Echo(r.string("echo")?))
    }
}

/// Reserve `n` distinct loopback ports by binding then dropping.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let held: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind :0"))
        .collect();
    held.iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

fn transport(addrs: &[SocketAddr]) -> TcpTransport<Echo, Echo> {
    let cfg = TcpConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_millis(20),
        ..TcpConfig::default()
    };
    TcpTransport::from_peer_list(addrs, cfg)
}

/// Serve `count` echo requests on a spawned thread, then stop.
fn echo_server(
    t: &TcpTransport<Echo, Echo>,
    node: NodeId,
    count: usize,
) -> std::thread::JoinHandle<()> {
    let listener = Transport::<Echo, Echo>::register(t, node).expect("bind server");
    std::thread::spawn(move || {
        let mut served = 0;
        while served < count {
            if let Some(inc) = listener.accept(Duration::from_millis(20)) {
                let reply = Echo(format!("{}:{}", inc.from(), inc.req().0));
                inc.reply(reply);
                served += 1;
            }
        }
    })
}

#[test]
fn echo_round_trips_over_real_sockets() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    let h = echo_server(&t, NodeId(0), 3);
    let caller = t.caller(NodeId(7));
    for i in 0..3 {
        let resp = caller
            .call(NodeId(0), Echo(format!("m{i}")), Duration::from_secs(2))
            .expect("echo served");
        assert_eq!(resp, Echo(format!("n7:m{i}")));
    }
    h.join().expect("server thread");
}

#[test]
fn unknown_node_fails_fast_and_unbound_port_disconnects() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    let caller = t.caller(NodeId(1));
    assert_eq!(
        caller
            .call(NodeId(9), Echo("x".into()), Duration::from_millis(200))
            .unwrap_err(),
        RpcError::UnknownNode(NodeId(9))
    );
    // Nothing listens on the reserved port: connection refused must map
    // into the failure-indicating side of the taxonomy.
    let err = caller
        .call(NodeId(0), Echo("x".into()), Duration::from_millis(500))
        .unwrap_err();
    assert!(err.indicates_failure(), "got {err:?}");
}

#[test]
fn accepted_but_never_served_request_times_out() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    // Register the listener but never accept(): the connection and
    // handshake succeed, the request frame is written, no reply comes.
    let _listener = Transport::<Echo, Echo>::register(&t, NodeId(0)).expect("bind");
    let caller = t.caller(NodeId(1));
    let clock = ClockHandle::wall();
    let t0 = clock.now();
    let ttl = Duration::from_millis(300);
    let err = caller
        .call(NodeId(0), Echo("hang".into()), ttl)
        .unwrap_err();
    assert_eq!(err, RpcError::Timeout { to: NodeId(0) });
    assert!(clock.since(t0) >= ttl, "must wait out the full deadline");
}

#[test]
fn client_reconnects_after_server_restart() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    let h = echo_server(&t, NodeId(0), 1);
    let caller = t.caller(NodeId(3));
    caller
        .call(NodeId(0), Echo("a".into()), Duration::from_secs(2))
        .expect("first epoch");
    h.join().expect("server gone");
    // Server down: the pooled connection dies; calls fail with a
    // failure-indicating error rather than hanging forever.
    let err = caller
        .call(NodeId(0), Echo("b".into()), Duration::from_millis(800))
        .unwrap_err();
    assert!(err.indicates_failure(), "got {err:?}");
    // Server restarts on the same address: the next call must redial
    // transparently (reconnect-on-error) and succeed.
    let h2 = echo_server(&t, NodeId(0), 1);
    let mut ok = false;
    for _ in 0..20 {
        match caller.call(NodeId(0), Echo("c".into()), Duration::from_millis(500)) {
            Ok(resp) => {
                assert_eq!(resp, Echo("n3:c".into()));
                ok = true;
                break;
            }
            Err(_) => ClockHandle::wall().sleep(Duration::from_millis(25)),
        }
    }
    assert!(ok, "client never recovered after restart");
    h2.join().expect("second server");
}

#[test]
fn concurrent_callers_multiplex_one_connection() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    let listener = Transport::<Echo, Echo>::register(&t, NodeId(0)).expect("bind");
    let server = std::thread::spawn(move || {
        let mut served = 0;
        while served < 40 {
            if let Some(inc) = listener.accept(Duration::from_millis(20)) {
                let reply = Echo(inc.req().0.clone());
                inc.reply(reply);
                served += 1;
            }
        }
    });
    let caller: Arc<dyn ftc_net::Caller<Echo, Echo>> = Arc::from(t.caller(NodeId(5)));
    let joins: Vec<_> = (0..4)
        .map(|w| {
            let caller = Arc::clone(&caller);
            std::thread::spawn(move || {
                for i in 0..10 {
                    let msg = format!("w{w}-{i}");
                    let resp = caller
                        .call(NodeId(0), Echo(msg.clone()), Duration::from_secs(2))
                        .expect("served");
                    assert_eq!(resp.0, msg, "response matched to the wrong request");
                }
            })
        })
        .collect();
    for j in joins {
        j.join().expect("worker");
    }
    server.join().expect("server");
}

#[test]
fn obs_scrape_serves_exposition_text() {
    let addrs = free_addrs(1);
    let t = transport(&addrs);
    t.set_obs_handler(Arc::new(|| "ftc_up 1\n".to_string()));
    let _listener = Transport::<Echo, Echo>::register(&t, NodeId(0)).expect("bind");
    let text = scrape_obs(addrs[0], Duration::from_secs(1)).expect("scrape");
    assert_eq!(text, "ftc_up 1\n");
}

#[test]
fn dial_to_a_peer_that_never_says_hello_is_bounded_by_the_call_deadline() {
    // A raw listener accepts the connection but never sends a hello —
    // a frozen process whose kernel still completes the TCP handshake.
    // The dial must give up at the call's 100 ms deadline, well inside
    // the transport's 1 s connect_timeout, and report a Timeout (a
    // detector signal), not Disconnected.
    let raw = TcpListener::bind("127.0.0.1:0").expect("bind :0");
    let addr = raw.local_addr().expect("local addr");
    let acceptor = std::thread::spawn(move || raw.accept().map(|(s, _)| s));
    let cfg = TcpConfig {
        connect_timeout: Duration::from_secs(1),
        ..TcpConfig::default()
    };
    let t: TcpTransport<Echo, Echo> = TcpTransport::from_peer_list(&[addr], cfg);
    let caller = t.caller(NodeId(1));
    let clock = ClockHandle::wall();
    let t0 = clock.now();
    let err = caller
        .call(NodeId(0), Echo("x".into()), Duration::from_millis(100))
        .unwrap_err();
    let took = clock.since(t0);
    assert_eq!(err, RpcError::Timeout { to: NodeId(0) });
    assert!(took < Duration::from_millis(300), "dial took {took:?}");
    let _held = acceptor.join().expect("acceptor thread");
}
