type ('state, 'output) t = Continue of 'state | Return of 'output
