//! Print the paper's coordination programs.
//!
//! Renders the Fig 3 merger and the Fig 2 (static), §V (2-CPU) and
//! Fig 4 (dynamic) networks back to S-Net source with the
//! pretty-printer, and round-trips each through parse → compile to show
//! that the printed text is a real program, not just a dump.
//!
//! ```text
//! cargo run --example show_networks
//! ```

use snet_apps::{image_slot, merger_net, raytracing_net, NetVariant};
use snet_lang::{compile, extract_registry, to_source};

fn main() {
    let slot = image_slot();
    let mut nets = vec![("Fig 3: the merger subnet", merger_net())];
    for (title, variant) in [
        ("Fig 2: static fork-join", NetVariant::Static),
        ("§V: 2-CPU static variant", NetVariant::Static2Cpu),
        ("Fig 4: dynamic token scheduling", NetVariant::Dynamic),
    ] {
        nets.push((title, raytracing_net(variant, slot.clone(), None)));
    }

    for (title, net) in nets {
        let src = to_source(&net).expect("printable");
        println!("=== {title} ===\n\n{src}\n");
        // The printed text is executable: parse and compile it back.
        let reparsed =
            compile(&src, &extract_registry(&net)).expect("the printed program re-compiles");
        assert_eq!(
            to_source(&reparsed).expect("printable"),
            src,
            "printing {title} is a fixed point"
        );
    }
    println!("round trip: print -> parse -> compile -> print is a fixed point for all four: ok");
}
