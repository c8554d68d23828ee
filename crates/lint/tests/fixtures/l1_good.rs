// L1 fixture (clean): handlers stay non-blocking; waiting happens at the
// issuing site, outside any handler closure.

fn notify_peer(loc: &Location, peer: usize) {
    loc.async_rmi(peer, move |l| {
        l.note_arrival();
    });
    loc.rmi_fence();
}

fn read_split_phase(loc: &Location, gid: usize) {
    let fut = loc.split_request(gid, |elem| elem.fetch_neighbor());
    loc.poll();
    fut.wait();
}
