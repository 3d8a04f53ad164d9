package obs

// TextCount is the number of strings in the text table.
func TextCount() int {
	texts.mu.Lock()
	defer texts.mu.Unlock()
	return len(texts.list)
}
