// L1 fixture: handlers run inside the polling loop of the target
// location — blocking there deadlocks the loop that would make progress.
// Marked lines must each raise exactly one diagnostic.

fn notify_peer(loc: &Location, peer: usize) {
    loc.async_rmi(peer, move |l| {
        l.note_arrival();
        l.rmi_fence(); // EXPECT-L1
    });
}

fn read_through_directory(loc: &Location, gid: usize) {
    loc.dir_route_ret(gid, |elem| {
        let fut = elem.fetch_neighbor();
        fut.wait() // EXPECT-L1
    });
}

fn update_with_hint(obj: &PObject<Rep>, gid: usize, hint: Option<(Bcid, LocId)>) {
    dir_route(obj, Resolution::Forwarding, gid, hint, |rep, loc, _| {
        let fut = fetch_neighbor(rep, loc);
        fut.wait(); // EXPECT-L1
    });
}
