let two = Probe.used 1
