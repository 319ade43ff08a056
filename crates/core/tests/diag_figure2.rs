//! Diagnostic: diff record vs replay schedule traces for the Figure 2
//! client under the random strategy. Kept as a regression canary: the
//! first divergence, if any, is printed.

use std::sync::Arc;

use tsan11rec::vos::{PollFd, RequestSourcePeer, SignalTrigger, Vos};
use tsan11rec::{Atomic, Config, Execution, MemOrder, Mode, Mutex, Strategy, TraceSpec};

const SIGTERM: i32 = 15;

fn client() {
    let quit = Arc::new(Atomic::new(false));
    let requests = Arc::new(Mutex::new(Vec::<Vec<u8>>::new()));
    let q = Arc::clone(&quit);
    tsan11rec::signals::set_handler(SIGTERM, move || {
        q.store(true, MemOrder::SeqCst);
    });
    let server_fd = tsan11rec::sys::connect(Box::new(RequestSourcePeer::new(6, 32, 1_000)));
    let listener = {
        let quit = Arc::clone(&quit);
        let requests = Arc::clone(&requests);
        tsan11rec::thread::spawn(move || {
            while !quit.load(MemOrder::SeqCst) {
                let mut fds = [PollFd::readable(server_fd)];
                match tsan11rec::sys::poll(&mut fds) {
                    Ok(n) if n > 0 && fds[0].revents.readable => {
                        let mut buf = vec![0u8; 32];
                        if let Ok(n) = tsan11rec::sys::recv(server_fd, &mut buf) {
                            buf.truncate(n as usize);
                            requests.lock().push(buf);
                        }
                    }
                    _ => {}
                }
            }
        })
    };
    let responder = {
        let quit = Arc::clone(&quit);
        let requests = Arc::clone(&requests);
        tsan11rec::thread::spawn(move || {
            while !quit.load(MemOrder::SeqCst) {
                let buf = requests.lock().pop();
                if let Some(buf) = buf {
                    let _ = tsan11rec::sys::send(server_fd, &buf);
                }
            }
        })
    };
    listener.join();
    responder.join();
}

fn world(vos: &Vos) {
    vos.schedule_signal(SIGTERM, SignalTrigger::AfterSyscalls(200));
}

#[test]
fn record_replay_schedules_are_identical() {
    let config = || {
        Config::new(Mode::Tsan11Rec(Strategy::Random))
            .with_seeds([21, 42])
            .without_liveness()
            .with_trace(TraceSpec::SCHEDULE)
    };
    let vos_cfg = || tsan11rec::vos::VosConfig::deterministic(0x5eed).with_strace();
    let (rec_report, demo) = Execution::new(config())
        .with_vos(vos_cfg())
        .setup(world)
        .record(client);
    assert!(rec_report.outcome.is_ok(), "{:?}", rec_report.outcome);
    let rep_report = Execution::new(config())
        .with_vos(vos_cfg())
        .replay(&demo, client);

    for (i, (a, b)) in rec_report
        .strace
        .iter()
        .zip(rep_report.strace.iter())
        .enumerate()
    {
        assert_eq!(
            a,
            b,
            "first strace divergence at syscall #{i}:\nrec ctx {:?}\nrep ctx {:?}",
            &rec_report.strace[i.saturating_sub(6)..(i + 4).min(rec_report.strace.len())],
            &rep_report.strace[i.saturating_sub(6)..(i + 4).min(rep_report.strace.len())]
        );
    }
    let rec_trace = rec_report.tick_trace();
    let rep_trace = rep_report.tick_trace();
    for (i, (a, b)) in rec_trace.iter().zip(rep_trace.iter()).enumerate() {
        assert_eq!(
            a,
            b,
            "first schedule divergence at cs #{i}: record {a:?} vs replay {b:?}\n\
             context rec: {:?}\ncontext rep: {:?}",
            &rec_trace[i.saturating_sub(5)..(i + 5).min(rec_trace.len())],
            &rep_trace[i.saturating_sub(5)..(i + 5).min(rep_trace.len())],
        );
    }
    assert!(
        rep_report.outcome.is_ok(),
        "replay outcome: {:?} (traces matched for {} cs)\nrec tail: {:?}\nrep tail: {:?}\nrec len {} rep len {}",
        rep_report.outcome,
        rec_trace.len().min(rep_trace.len()),
        &rec_trace[rec_trace.len().saturating_sub(12)..],
        &rep_trace[rep_trace.len().saturating_sub(12)..],
        rec_trace.len(),
        rep_trace.len()
    );
    assert_eq!(rec_trace.len(), rep_trace.len(), "trace lengths differ");
}
