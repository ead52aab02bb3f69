//! Seeded D014 violations: the response-queue guard held across socket
//! I/O in the connection loop, and a nested lock acquisition.

/// Flushes queued frames while still holding the queue lock — every
/// other worker blocks on the mutex for a full network round-trip.
pub fn pump(stream: &mut TcpStream, queue: &Mutex<VecDeque<Frame>>) -> io::Result<()> {
    let mut q = queue.lock().unwrap_or_else(|p| p.into_inner());
    while let Some(frame) = q.pop_front() {
        stream.write_all(&frame.bytes)?;
    }
    Ok(())
}

/// Takes the stats lock while the queue guard is still live — the
/// accept loop takes them in the opposite order.
pub fn snapshot(queue: &Mutex<VecDeque<Frame>>, stats: &Mutex<Stats>) -> usize {
    let q = queue.lock().unwrap_or_else(|p| p.into_inner());
    let s = stats.lock().unwrap_or_else(|p| p.into_inner());
    q.len() + s.served
}

/// Accept-loop bookkeeping takes the locks in the opposite order from
/// `snapshot` — stats first, then queue — closing a lock-order cycle
/// (D014): one thread in `snapshot`, one here, each holding what the
/// other wants.
pub fn retire(queue: &Mutex<VecDeque<Frame>>, stats: &Mutex<Stats>) {
    let mut s = stats.lock().unwrap_or_else(|p| p.into_inner());
    let mut q = queue.lock().unwrap_or_else(|p| p.into_inner());
    s.served += q.len();
    q.clear();
}

/// Holds the stats guard across a call that blocks on the socket —
/// `forward` looks innocent from here, but it pins the lock for a full
/// network round-trip (D014).
pub fn relay(stream: &mut TcpStream, stats: &Mutex<Stats>, frame: &Frame) -> io::Result<()> {
    let s = stats.lock().unwrap_or_else(|p| p.into_inner());
    forward(stream, frame)?;
    drop(s);
    Ok(())
}

/// The blocking leaf `relay` reaches while holding the stats lock.
fn forward(stream: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    stream.write_all(&frame.bytes)
}
